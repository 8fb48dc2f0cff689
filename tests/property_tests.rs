//! Property-based tests over the PTSBE invariants (proptest).

use proptest::prelude::*;
use ptsbe::circuit::fusion::{self, FusedKernel};
use ptsbe::core::stats::{histogram, tvd};
use ptsbe::math::Matrix;
use ptsbe::prelude::*;

/// Random small noisy circuit strategy: (n_qubits, gate recipe, noise p).
fn circuit_strategy() -> impl Strategy<Value = (usize, Vec<(u8, usize, usize)>, f64)> {
    (2usize..5).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec((0u8..6, 0..n, 0..n), 1..12),
            0.0..0.3f64,
        )
    })
}

fn build(n: usize, recipe: &[(u8, usize, usize)], p: f64) -> NoisyCircuit {
    let mut c = Circuit::new(n);
    for &(kind, a, b) in recipe {
        match kind {
            0 => {
                c.h(a);
            }
            1 => {
                c.t(a);
            }
            2 => {
                c.sx(a);
            }
            3 => {
                c.rz(a, 0.3 + a as f64);
            }
            4 if a != b => {
                c.cx(a, b);
            }
            _ if a != b => {
                c.cz(a, b);
            }
            _ => {
                c.s(a);
            }
        }
    }
    c.measure_all();
    NoiseModel::new()
        .with_default_1q(channels::depolarizing(p))
        .with_default_2q(channels::depolarizing(p))
        .apply(&c)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// PTSBE with exhaustive plans reconstructs the exact distribution on
    /// random circuits (within shot noise).
    #[test]
    fn exhaustive_ptsbe_matches_oracle((n, recipe, p) in circuit_strategy()) {
        let noisy = build(n, &recipe, p);
        prop_assume!(noisy.n_sites() <= 6); // keep 4^sites tractable
        let backend = SvBackend::<f64>::new(&noisy, SamplingStrategy::Auto).unwrap();
        let mut rng = PhiloxRng::new(940, 0);
        let plan = ExhaustivePts { shots_per_trajectory: 500, max_trajectories: 1 << 13 }
            .sample_plan(&noisy, &mut rng);
        let result = BatchedExecutor::default().execute(&backend, &noisy, &plan);
        let hist = ptsbe::core::estimators::weighted_histogram(&result, 1 << n);
        let exact = DensityMatrix::evolve(&noisy).probabilities();
        let d = tvd(&hist, &exact);
        prop_assert!(d < 0.06, "TVD {d}");
    }

    /// Realized trajectory probabilities are a distribution over the
    /// exhaustive plan.
    #[test]
    fn realized_probs_normalize((n, recipe, p) in circuit_strategy()) {
        let noisy = build(n, &recipe, p);
        prop_assume!(noisy.n_sites() <= 6);
        let backend = SvBackend::<f64>::new(&noisy, SamplingStrategy::Auto).unwrap();
        let mut rng = PhiloxRng::new(941, 0);
        let plan = ExhaustivePts { shots_per_trajectory: 1, max_trajectories: 1 << 13 }
            .sample_plan(&noisy, &mut rng);
        let result = BatchedExecutor::default().execute(&backend, &noisy, &plan);
        let total: f64 = result.trajectories.iter().map(|t| t.meta.realized_prob).sum();
        prop_assert!((total - 1.0).abs() < 1e-8, "Σ p_α = {total}");
        for t in &result.trajectories {
            prop_assert!(t.meta.realized_prob >= -1e-12);
        }
    }

    /// Baseline (Algorithm 1) and PTSBE sample the same distribution on
    /// random unitary-mixture circuits.
    #[test]
    fn baseline_equals_ptsbe((n, recipe, p) in circuit_strategy()) {
        let noisy = build(n, &recipe, p);
        let shots = 8_000;
        let base = run_baseline_sv::<f64>(&noisy, shots, 942);
        let backend = SvBackend::<f64>::new(&noisy, SamplingStrategy::Auto).unwrap();
        let mut rng = PhiloxRng::new(943, 0);
        let plan = ProbabilisticPts { n_samples: shots, shots_per_trajectory: 1, dedup: false }
            .sample_plan(&noisy, &mut rng);
        let result = BatchedExecutor::default().execute(&backend, &noisy, &plan);
        let h1 = histogram(base.iter().copied(), 1 << n);
        let h2 = histogram(result.all_shots(), 1 << n);
        let d = tvd(&h1, &h2);
        prop_assert!(d < 0.06, "TVD {d}");
    }

    /// Plans never allocate invalid Kraus indices, and provenance labels
    /// match the choices.
    #[test]
    fn plans_are_well_formed((n, recipe, p) in circuit_strategy()) {
        let noisy = build(n, &recipe, p);
        let mut rng = PhiloxRng::new(944, 0);
        for plan in [
            ProbabilisticPts { n_samples: 200, shots_per_trajectory: 2, dedup: true }
                .sample_plan(&noisy, &mut rng),
            TopKPts { k: 20, shots_per_trajectory: 2, min_prob: 0.0 }
                .sample_plan(&noisy, &mut rng),
        ] {
            for t in &plan.trajectories {
                prop_assert_eq!(t.choices.len(), noisy.n_sites());
                for (site, &k) in noisy.sites().iter().zip(&t.choices) {
                    prop_assert!(k < site.channel.n_ops());
                }
                let meta = ptsbe::core::TrajectoryMeta::from_assignment(&noisy, 0, &t.choices);
                for ev in &meta.errors {
                    prop_assert_eq!(ev.kraus_index, t.choices[ev.site_id]);
                }
            }
        }
    }

    /// Trie construction preserves the plan: total shots, the trajectory
    /// multiset (every plan index appears at exactly one leaf), and every
    /// node's representative prefix spells its path. Sharing can only
    /// reduce work, never below one edge per distinct assignment.
    #[test]
    fn plan_tree_preserves_plan((n, recipe, p) in circuit_strategy()) {
        let noisy = build(n, &recipe, p);
        let mut rng = PhiloxRng::new(945, 0);
        let plan = ProbabilisticPts { n_samples: 150, shots_per_trajectory: 3, dedup: false }
            .sample_plan(&noisy, &mut rng);
        let tree = PtsPlanTree::from_plan(&plan);

        // Total shots preserved.
        prop_assert_eq!(tree.total_shots(&plan), plan.total_shots());

        // Trajectory multiset preserved: leaf indices are a permutation
        // of plan indices, and each leaf's assignment matches its path.
        let mut leaf_indices = tree.leaf_plan_indices();
        prop_assert_eq!(leaf_indices.len(), plan.n_trajectories());
        leaf_indices.sort_unstable();
        prop_assert_eq!(
            leaf_indices,
            (0..plan.n_trajectories()).collect::<Vec<_>>()
        );

        // Edge-count bounds: at most one edge per trajectory-site pair;
        // at least one full path plus one edge per extra distinct
        // assignment.
        let distinct: std::collections::HashSet<&[usize]> =
            plan.trajectories.iter().map(|t| t.choices.as_slice()).collect();
        prop_assert!(tree.n_edges() <= tree.flat_prep_ops());
        if noisy.n_sites() > 0 && !plan.trajectories.is_empty() {
            prop_assert!(tree.n_edges() >= noisy.n_sites() + distinct.len() - 1);
        }
        prop_assert_eq!(
            tree.prep_ops_saved(),
            tree.flat_prep_ops() - tree.n_edges()
        );

        // Walking the tree reproduces each leaf's full assignment.
        fn walk(
            tree: &PtsPlanTree,
            plan: &PtsPlan,
            node: usize,
            path: &mut Vec<usize>,
        ) -> Result<(), proptest::TestCaseError> {
            let nref = tree.node(node);
            for &idx in &nref.leaves {
                prop_assert_eq!(&plan.trajectories[idx].choices, path);
            }
            for &(branch, child) in &nref.children {
                path.push(branch);
                walk(tree, plan, child, path)?;
                path.pop();
            }
            Ok(())
        }
        walk(&tree, &plan, tree.root(), &mut Vec::new())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sub-tries (the chunks of a split tree job). For any cut points,
    /// each plan-range trie holds exactly its range under absolute plan
    /// indices and is the indices-trie of the same trajectories, and
    /// walking the ranges in order is bitwise the flat executor on the
    /// whole plan. The same cut points read as boundaries between the
    /// whole trie's *leaves* — parts that are not plan-contiguous, single
    /// leaves and empty parts included — and the balanced leaf cut give
    /// walks that, merged by plan index, are bitwise the flat executor
    /// too, on the statevector and on a truncating MPS backend.
    #[test]
    fn range_tries_concatenate_to_the_flat_execution(
        (n, recipe, p) in circuit_strategy(),
        cuts in prop::collection::vec(0usize..41, 0..5),
    ) {
        let noisy = build(n, &recipe, p);
        let backend = SvBackend::<f64>::new(&noisy, SamplingStrategy::Auto).unwrap();
        let mut rng = PhiloxRng::new(946, 0);
        let plan = ProbabilisticPts { n_samples: 40, shots_per_trajectory: 6, dedup: false }
            .sample_plan(&noisy, &mut rng);
        let n_traj = plan.n_trajectories();

        // `from_plan` is the 0..n range, node for node.
        let whole = PtsPlanTree::from_plan(&plan);
        prop_assert!(same_nodes(&whole, &PtsPlanTree::from_plan_range(&plan, 0..n_traj)));

        // Repeated cut points give empty ranges, adjacent ones give
        // single-trajectory ranges.
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(n_traj)).collect();
        bounds.extend([0, n_traj]);
        bounds.sort_unstable();
        let ex = TreeExecutor { seed: 9, parallel: false };
        let mut joined = Vec::new();
        for w in bounds.windows(2) {
            let range = w[0]..w[1];
            let sub = PtsPlanTree::from_plan_range(&plan, range.clone());
            // The range form is the contiguous case of the indices form,
            // whatever order the indices come in.
            let backwards: Vec<usize> = range.clone().rev().collect();
            prop_assert!(same_nodes(&sub, &PtsPlanTree::from_plan_indices(&plan, &backwards)));
            let mut leaves = sub.leaf_plan_indices();
            leaves.sort_unstable();
            prop_assert_eq!(leaves, range.clone().collect::<Vec<_>>());
            prop_assert_eq!(sub.n_trajectories(), range.len());
            prop_assert_eq!(sub.flat_prep_ops(), range.len() * sub.n_sites());
            prop_assert!(sub.n_edges() <= whole.n_edges());
            let flat = sub.flat_prep_ops();
            let expect = if flat == 0 { 0.0 } else { (flat - sub.n_edges()) as f64 / flat as f64 };
            prop_assert_eq!(sub.sharing_ratio(), expect);
            joined.extend(ex.execute_tree(&backend, &noisy, &plan, &sub).trajectories);
        }
        let flat = BatchedExecutor { seed: 9, parallel: false }.execute(&backend, &noisy, &plan);
        prop_assert!(same_results(&joined, &flat.trajectories));

        // Leaf-order partitions: the cut points snapped to leaf starts of
        // the whole trie's depth-first order.
        let order = whole.leaf_plan_indices();
        let mut leaf_starts: Vec<usize> = (0..n_traj)
            .filter(|&i| {
                i == 0 || plan.trajectories[order[i]].choices != plan.trajectories[order[i - 1]].choices
            })
            .collect();
        leaf_starts.push(n_traj);
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| leaf_starts[c % leaf_starts.len()]).collect();
        bounds.extend([0, n_traj]);
        bounds.sort_unstable();
        let random_parts: Vec<&[usize]> = bounds.windows(2).map(|w| &order[w[0]..w[1]]).collect();
        let k = cuts.len() + 1;
        let balanced = whole.leaf_chunks(&plan, k, 0.25);
        prop_assert!((1..=k).contains(&balanced.len()));
        let mut repeated = 0;
        for c in &balanced {
            let sub = PtsPlanTree::from_plan_indices(&plan, &order[c.range.clone()]);
            prop_assert_eq!((sub.n_edges(), sub.total_shots(&plan)), (c.edges, c.shots));
            repeated += c.edges;
        }
        prop_assert!(4 * repeated <= 5 * whole.n_edges(), "{repeated} of {}", whole.n_edges());
        let balanced_parts: Vec<&[usize]> =
            balanced.iter().map(|c| &order[c.range.clone()]).collect();

        let mps = MpsBackend::<f64>::new(&noisy, MpsConfig::new(2), Default::default()).unwrap();
        let mps_flat = BatchedExecutor { seed: 9, parallel: false }.execute(&mps, &noisy, &plan);
        for parts in [&random_parts, &balanced_parts] {
            let sv = walk_parts(&backend, &noisy, &plan, parts);
            prop_assert!(same_results(&sv, &flat.trajectories));
            let tn = walk_parts(&mps, &noisy, &plan, parts);
            prop_assert!(tn.iter().all(|t| t.meta.truncation.is_some()));
            prop_assert!(same_results(&tn, &mps_flat.trajectories));
        }
    }
}

/// Node-for-node equality of two plan tries.
fn same_nodes(a: &PtsPlanTree, b: &PtsPlanTree) -> bool {
    a.n_nodes() == b.n_nodes()
        && a.n_trajectories() == b.n_trajectories()
        && (0..a.n_nodes()).all(|i| {
            let (x, y) = (a.node(i), b.node(i));
            (x.depth, &x.children, &x.leaves, x.rep) == (y.depth, &y.children, &y.leaves, y.rep)
        })
}

/// Bitwise equality of two executions: plan order, shots,
/// `realized_prob` bits and truncation provenance.
fn same_results(
    a: &[ptsbe::core::be::TrajectoryResult],
    b: &[ptsbe::core::be::TrajectoryResult],
) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.meta.traj_id == y.meta.traj_id
                && x.shots == y.shots
                && x.meta.realized_prob.to_bits() == y.meta.realized_prob.to_bits()
                && x.meta.truncation == y.meta.truncation
        })
}

/// Walk each part's own sub-trie over one shared pool (as the chunks of
/// a split job do) and merge the results by plan index.
fn walk_parts<B: ptsbe::core::Backend>(
    backend: &B,
    noisy: &NoisyCircuit,
    plan: &PtsPlan,
    parts: &[&[usize]],
) -> Vec<ptsbe::core::be::TrajectoryResult> {
    let ex = TreeExecutor {
        seed: 9,
        parallel: false,
    };
    let pool = StatePool::new();
    let mut merged = Vec::new();
    for part in parts {
        let sub = PtsPlanTree::from_plan_indices(plan, part);
        assert_eq!(sub.n_trajectories(), part.len());
        merged.extend(
            ex.execute_tree_pooled(backend, noisy, plan, &sub, &pool)
                .trajectories,
        );
    }
    merged.sort_by_key(|t| t.meta.traj_id);
    merged
}

// ---------------------------------------------------------------------------
// Gate-fusion invariants

use ptsbe::circuit::fusion::compose_ops as compose;

/// Gate-sequence strategy spanning every kernel class: diagonal (t/rz/
/// s/cz), permutation (x/y/cx/swap) and dense (h/sx/ry) content.
fn gate_seq_strategy() -> impl Strategy<Value = (usize, Vec<(u8, usize, usize, i32)>)> {
    (2usize..4).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec((0u8..10, 0..n, 0..n, -3i32..4), 1..24),
        )
    })
}

/// Materialize one recipe entry as (matrix, qubits); `None` for a
/// degenerate 2q pick with `a == b`.
fn gate_from_recipe(kind: u8, a: usize, b: usize, arg: i32) -> Option<(Matrix<f64>, Vec<usize>)> {
    use ptsbe::math::gates;
    let theta = 0.25 + arg as f64 * 0.4;
    Some(match kind {
        0 => (gates::h(), vec![a]),
        1 => (gates::t(), vec![a]),
        2 => (gates::rz(theta), vec![a]),
        3 => (gates::x(), vec![a]),
        4 => (gates::y(), vec![a]),
        5 => (gates::sx(), vec![a]),
        6 if a != b => (gates::cx(), vec![a, b]),
        7 if a != b => (gates::cz(), vec![a, b]),
        8 if a != b => (gates::swap(), vec![a, b]),
        9 => (gates::ry(theta), vec![a]),
        _ => return None,
    })
}

/// One segmented-recipe token: `(is_site, gate kind, qubit a, qubit b,
/// angle knob)`.
type SegToken = (bool, u8, usize, usize, i32);

/// Circuit-with-sites strategy for the fusion/segment-boundary property:
/// interleaves gates (from [`gate_seq_strategy`]'s alphabet) with noise
/// sites at proptest-chosen (and shrinkable) positions.
fn segmented_recipe_strategy() -> impl Strategy<Value = (usize, Vec<SegToken>)> {
    (2usize..4).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec((prop::bool::ANY, 0u8..10, 0..n, 0..n, -3i32..4), 1..20),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fused op list composes to the same full-space unitary as the
    /// unfused gate sequence, for random sequences exercising all three
    /// kernel classes.
    #[test]
    fn fused_stream_composes_to_same_unitary((n, recipe) in gate_seq_strategy()) {
        let gates: Vec<(Matrix<f64>, Vec<usize>)> = recipe
            .iter()
            .filter_map(|&(k, a, b, arg)| gate_from_recipe(k, a, b, arg))
            .collect();
        prop_assume!(!gates.is_empty());
        let fused = fusion::fuse_run(gates.iter().map(|(m, q)| (m, q.as_slice())));
        prop_assert!(fused.len() <= gates.len());
        for op in &fused {
            // Classification must describe the stored matrix exactly.
            prop_assert_eq!(fusion::classify(&op.matrix), op.kind);
            if op.kind != FusedKernel::Dense {
                let (perm, phase) = fusion::permutation_form(&op.matrix);
                prop_assert_eq!(perm.len(), op.matrix.rows());
                prop_assert_eq!(phase.len(), op.matrix.rows());
            }
        }
        let fused_ops: Vec<_> = fused
            .iter()
            .map(|f| (f.matrix.clone(), f.qubits.clone()))
            .collect();
        let a = compose(n, &gates);
        let b = compose(n, &fused_ops);
        let d = a.max_abs_diff(&b);
        prop_assert!(d < 1e-12, "fused unitary diverged by {d}");
    }

    /// Fusion never crosses a noise site: the fused compilation has the
    /// same segment structure as the unfused one, and segment-by-segment
    /// the fused gate stream composes to the unfused segment unitary.
    /// The generator shrinks toward fewer ops and fewer/earlier sites.
    #[test]
    fn fusion_respects_segment_boundaries((n, recipe) in segmented_recipe_strategy()) {
        use ptsbe::statevector::exec::{self as sv_exec, CompiledOp};
        let mut c = Circuit::new(n);
        let channel = std::sync::Arc::new(channels::depolarizing(0.1));
        let mut any_gate = false;
        for &(is_site, kind, a, b, arg) in &recipe {
            if is_site {
                c.noise(std::sync::Arc::clone(&channel), &[a]);
            } else if let Some((m, qs)) = gate_from_recipe(kind, a, b, arg) {
                // Route through the Unitary escape hatches so arbitrary
                // matrices survive the circuit IR round-trip.
                match qs.as_slice() {
                    [q] => { c.unitary1(m, *q); }
                    [x, y] => { c.unitary2(m, *x, *y); }
                    _ => unreachable!(),
                }
                any_gate = true;
            }
        }
        prop_assume!(any_gate);
        c.measure_all();
        let nc = NoisyCircuit::from_circuit(c);
        let fused = sv_exec::compile::<f64>(&nc).unwrap();
        let unfused = sv_exec::compile_with::<f64>(&nc, false).unwrap();
        prop_assert_eq!(fused.n_segments(), unfused.n_segments());
        prop_assert_eq!(fused.n_segments(), nc.n_sites() + 1);

        // Split both op streams at their Site markers and compare the
        // composed unitary of every segment.
        type Segment = (Vec<(Matrix<f64>, Vec<usize>)>, Option<usize>);
        fn segments(ops: &[CompiledOp<f64>]) -> Vec<Segment> {
            let mut out = Vec::new();
            let mut cur = Vec::new();
            for op in ops {
                match op {
                    CompiledOp::Site(id) => {
                        out.push((std::mem::take(&mut cur), Some(*id)));
                    }
                    other => cur.push(op_matrix(other)),
                }
            }
            out.push((cur, None));
            out
        }
        fn op_matrix(op: &CompiledOp<f64>) -> (Matrix<f64>, Vec<usize>) {
            use ptsbe::math::gates;
            match op {
                CompiledOp::G1(m, q) => (m.clone(), vec![*q]),
                CompiledOp::G2(m, a, b) => (m.clone(), vec![*a, *b]),
                CompiledOp::Gk(m, qs) => (m.clone(), qs.clone()),
                CompiledOp::Cx(a, b) => (gates::cx(), vec![*a, *b]),
                CompiledOp::Cz(a, b) => (gates::cz(), vec![*a, *b]),
                CompiledOp::Swap(a, b) => (gates::swap(), vec![*a, *b]),
                CompiledOp::D1(d, q) => {
                    let mut m = Matrix::zeros(2, 2);
                    m[(0, 0)] = d[0];
                    m[(1, 1)] = d[1];
                    (m, vec![*q])
                }
                CompiledOp::D2(d, a, b) => {
                    let mut m = Matrix::zeros(4, 4);
                    for i in 0..4 {
                        m[(i, i)] = d[i];
                    }
                    (m, vec![*a, *b])
                }
                CompiledOp::P1(p, ph, q) => {
                    let mut m = Matrix::zeros(2, 2);
                    for r in 0..2 {
                        m[(r, p[r])] = ph[r];
                    }
                    (m, vec![*q])
                }
                CompiledOp::P2(p, ph, a, b) => {
                    let mut m = Matrix::zeros(4, 4);
                    for r in 0..4 {
                        m[(r, p[r])] = ph[r];
                    }
                    (m, vec![*a, *b])
                }
                CompiledOp::Site(_) => unreachable!("sites handled above"),
            }
        }
        let segs_f = segments(fused.ops());
        let segs_u = segments(unfused.ops());
        prop_assert_eq!(segs_f.len(), segs_u.len());
        for (k, ((ops_f, site_f), (ops_u, site_u))) in
            segs_f.into_iter().zip(segs_u).enumerate()
        {
            // Identical site sequence: the Kraus branch points (and with
            // them Philox stream association) are untouched by fusion.
            prop_assert_eq!(site_f, site_u, "segment {} fires a different site", k);
            let a = compose(n, &ops_f);
            let b = compose(n, &ops_u);
            let d = a.max_abs_diff(&b);
            prop_assert!(d < 1e-12, "segment {k} unitary diverged by {d}");
        }
    }
}

// ---------------------------------------------------------------------------
// Pool-recycling invariants (PR 3)

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A state forked into a recycled (dirty) buffer is bitwise identical
    /// to a fresh clone, on both backends — the invariant that makes the
    /// pooled tree walk safe.
    #[test]
    fn pooled_fork_bitwise_equals_fresh_clone((n, recipe, p) in circuit_strategy()) {
        use ptsbe::core::Backend;
        let noisy = build(n, &recipe, p);
        prop_assume!(noisy.n_sites() >= 1);
        // Two different random assignments: one for the source state, one
        // to poison the recycled buffer.
        let draw = |seed_off: u64| -> Vec<usize> {
            let mut r = PhiloxRng::new(951 + seed_off, 0);
            noisy
                .sites()
                .iter()
                .map(|s| (r.next_u64() as usize) % s.channel.sampling_probs().len())
                .collect()
        };
        let src_choices = draw(0);
        let poison_choices = draw(1);

        // Statevector backend.
        let sv = SvBackend::<f64>::new(&noisy, SamplingStrategy::Auto).unwrap();
        let (src, _) = sv.prepare(&src_choices);
        let (poison, _) = sv.prepare(&poison_choices);
        let pool = StatePool::new();
        sv.release(poison, &pool);
        let recycled = sv.fork_pooled(&src, &pool);
        prop_assert_eq!(pool.stats().recycled, 1, "fork must have drawn the dirty buffer");
        let fresh = sv.fork(&src);
        for (i, (a, b)) in recycled.amplitudes().iter().zip(fresh.amplitudes()).enumerate() {
            prop_assert_eq!(a.re.to_bits(), b.re.to_bits(), "sv re amp {}", i);
            prop_assert_eq!(a.im.to_bits(), b.im.to_bits(), "sv im amp {}", i);
        }

        // MPS backend (different tensor shapes between poison and source
        // exercise the shape-adapting copy).
        let mps = MpsBackend::<f64>::new(
            &noisy,
            MpsConfig::exact().with_max_bond(16),
            MpsSampleMode::default(),
        )
        .unwrap();
        let (m_src, _) = mps.prepare(&src_choices);
        let (m_poison, _) = mps.prepare(&poison_choices);
        let m_pool = StatePool::new();
        mps.release(m_poison, &m_pool);
        let m_recycled = mps.fork_pooled(&m_src, &m_pool);
        let m_fresh = mps.fork(&m_src);
        for bits in 0..(1u128 << n) {
            let a = m_recycled.amplitude(bits);
            let b = m_fresh.amplitude(bits);
            prop_assert_eq!(a.re.to_bits(), b.re.to_bits(), "mps re amp {}", bits);
            prop_assert_eq!(a.im.to_bits(), b.im.to_bits(), "mps im amp {}", bits);
        }
    }

    /// Released buffers never leak stale amplitudes into later
    /// trajectories: the pooled tree executor and the batch-major
    /// executor reproduce the clone-per-trajectory flat executor bitwise
    /// on random circuits.
    #[test]
    fn recycled_buffers_never_leak_into_trajectories((n, recipe, p) in circuit_strategy()) {
        let noisy = build(n, &recipe, p);
        let backend = SvBackend::<f64>::new(&noisy, SamplingStrategy::Auto).unwrap();
        let mut rng = PhiloxRng::new(952, 0);
        let plan = ProbabilisticPts { n_samples: 25, shots_per_trajectory: 8, dedup: false }
            .sample_plan(&noisy, &mut rng);
        let flat = BatchedExecutor { seed: 9, parallel: false }.execute(&backend, &noisy, &plan);
        let tree = TreeExecutor { seed: 9, parallel: false }.execute(&backend, &noisy, &plan);
        let batch = BatchMajorExecutor { seed: 9, parallel: false, lanes: 4, ..Default::default() }
            .execute(&backend, &noisy, &plan);
        for (a, b) in tree.trajectories.iter().zip(&flat.trajectories) {
            prop_assert_eq!(&a.shots, &b.shots, "pooled tree leaked state");
            prop_assert_eq!(
                a.meta.realized_prob.to_bits(),
                b.meta.realized_prob.to_bits()
            );
        }
        for (a, b) in batch.trajectories.iter().zip(&flat.trajectories) {
            prop_assert_eq!(&a.shots, &b.shots, "batch lane leaked state");
            prop_assert_eq!(
                a.meta.realized_prob.to_bits(),
                b.meta.realized_prob.to_bits()
            );
        }
    }
}

/// A 3-qubit brick of `layers` layers under 1q and 2q depolarizing noise
/// at `p`: five noise sites a layer, so a plan's trie is deep enough for
/// long shared spines.
fn deep_brick(layers: usize, p: f64) -> NoisyCircuit {
    let mut c = Circuit::new(3);
    for layer in 0..layers {
        c.h(layer % 3).t((layer + 1) % 3).cx(0, 1).cx(1, 2);
    }
    c.measure_all();
    NoiseModel::new()
        .with_default_1q(channels::depolarizing(p))
        .with_default_2q(channels::depolarizing(p))
        .apply(&c)
}

/// Fresh states a cold serial walk of `plan`'s trie draws from its pool
/// (the most states it held live at once), and the trie's leaf nodes.
fn cold_walk_draws<B: ptsbe::core::Backend>(
    backend: &B,
    nc: &NoisyCircuit,
    plan: &PtsPlan,
) -> (usize, usize) {
    let tree = PtsPlanTree::from_plan(plan);
    let pool = StatePool::new();
    TreeExecutor {
        seed: 3,
        parallel: false,
    }
    .execute_tree_pooled(backend, nc, plan, &tree, &pool);
    let leaves = (0..tree.n_nodes())
        .filter(|&i| tree.node(i).children.is_empty())
        .count();
    (pool.stats().fresh, leaves)
}

/// The heavy-last walk's bound on those draws: ⌊log₂ leaf nodes⌋ + 1
/// live states, plus one of slack.
fn heavy_last_bound(leaf_nodes: usize) -> usize {
    leaf_nodes.max(1).ilog2() as usize + 2
}

fn mps_of(nc: &NoisyCircuit) -> MpsBackend<f64> {
    MpsBackend::<f64>::new(nc, MpsConfig::exact(), MpsSampleMode::default()).unwrap()
}

/// `sv-shared`'s trie shape: an identity spine with 25 single-error
/// branches off it, plus repeats of the identity. Walked spine first,
/// every branch point keeps its state live until the spine's end (26
/// draws); heaviest child last, the walk holds at most a few.
#[test]
fn a_spine_with_single_error_branches_keeps_few_states_live() {
    let nc = deep_brick(12, 1e-3);
    let sites = nc.n_sites();
    let identity = nc.identity_assignment().unwrap();
    let mut trajectories: Vec<_> = (0..25)
        .map(|k| {
            let mut choices = identity.clone();
            choices[(k * 7 + 3) % sites] = 1 + k % 3;
            ptsbe::core::PlannedTrajectory { choices, shots: 4 }
        })
        .collect();
    for _ in 0..5 {
        trajectories.push(ptsbe::core::PlannedTrajectory {
            choices: identity.clone(),
            shots: 4,
        });
    }
    let plan = PtsPlan { trajectories };
    let sv = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
    let (drawn, leaves) = cold_walk_draws(&sv, &nc, &plan);
    assert_eq!(leaves, 26);
    assert!(
        drawn <= heavy_last_bound(leaves),
        "sv: {drawn} states drawn"
    );
    let (drawn, _) = cold_walk_draws(&mps_of(&nc), &nc, &plan);
    assert!(
        drawn <= heavy_last_bound(leaves),
        "mps: {drawn} states drawn"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the plan, a cold serial walk draws at most ⌊log₂ leaf
    /// nodes⌋ + 2 states from its pool, on both backends.
    #[test]
    fn a_cold_walk_draws_at_most_log2_leaves_plus_two_states(
        layers in 1usize..10,
        p in 0.0..0.4f64,
        n_samples in 1usize..80,
        dedup in prop::bool::ANY,
        seed in 0u64..10_000,
    ) {
        let nc = deep_brick(layers, p);
        let plan = ProbabilisticPts { n_samples, shots_per_trajectory: 2, dedup }
            .sample_plan(&nc, &mut PhiloxRng::new(seed, 0));
        let sv = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let (drawn, leaves) = cold_walk_draws(&sv, &nc, &plan);
        prop_assert!(drawn <= heavy_last_bound(leaves), "sv: {} drawn, {} leaves", drawn, leaves);
        let (drawn, _) = cold_walk_draws(&mps_of(&nc), &nc, &plan);
        prop_assert!(drawn <= heavy_last_bound(leaves), "mps: {} drawn, {} leaves", drawn, leaves);
    }
}
