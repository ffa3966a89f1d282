//! Property-based tests for the CART inducer's structural invariants, over
//! both of its targets (format classes and an `f64` response):
//!
//! 1. every internal split strictly reduces the target's impurity (weighted
//!    Gini, total squared error) on the training samples that reach it,
//! 2. predictions always return a format that appeared in the training
//!    labels (the tree cannot invent classes),
//! 3. model JSON round-trips to an identical tree (same structure, same
//!    predictions, byte-identical re-serialisation),
//! 4. the grown tree does not depend on the order the samples arrive in,
//! 5. no split leaves fewer than `min_leaf` samples on a side.

use dls_core::{
    BlockModel, DecisionTree, ModelMeta, Node, RegressionTree, Target, TrainedModel, Tree,
    TreeParams, NUM_FEATURES,
};
use dls_sparse::Format;
use proptest::prelude::*;

type Rows = Vec<[f64; NUM_FEATURES]>;

/// Strategy: a training set with 2..60 samples over a compressed 3-feature
/// subspace (indices 0, 3, 7), responses drawn from `response`.
fn arb_set<Y: Copy>(response: impl Strategy<Value = Y>) -> impl Strategy<Value = (Rows, Vec<Y>)> {
    let sample = (response, -8i32..=8, -8i32..=8, -8i32..=8).prop_map(|(y, a, b, c)| {
        let mut x = [0.0; NUM_FEATURES];
        x[0] = a as f64 / 4.0;
        x[3] = b as f64 / 8.0;
        x[7] = c as f64 / 2.0;
        (x, y)
    });
    proptest::collection::vec(sample, 2..60)
        .prop_map(|rows| (rows.iter().map(|r| r.0).collect(), rows.iter().map(|r| r.1).collect()))
}

/// Labels from the basic five.
fn arb_training_set() -> impl Strategy<Value = (Rows, Vec<Format>)> {
    arb_set((0u8..5).prop_map(|label| Format::BASIC[label as usize]))
}

/// Responses on a quarter-integer lattice: every partial sum is exact in
/// `f64`, so order invariance can be asserted bit for bit.
fn arb_regression_set() -> impl Strategy<Value = (Rows, Vec<f64>)> {
    arb_set((-16i32..=16).prop_map(|v| v as f64 / 4.0))
}

/// Strategy: pruning parameters in sensible ranges.
fn arb_params() -> impl Strategy<Value = TreeParams> {
    (0usize..10, 1usize..6).prop_map(|(max_depth, min_leaf)| TreeParams {
        max_depth,
        min_leaf,
        min_gain: 1e-9,
    })
}

/// Gini impurity of a label multiset.
fn gini_of(labels: &[Format]) -> f64 {
    let mut counts = [0usize; Format::ALL.len()];
    for &l in labels {
        counts[dls_sparse::telemetry::format_index(l)] += 1;
    }
    dls_core::gini(&counts)
}

/// Walks the tree alongside the samples that reach each node, checking the
/// strict-Gini-reduction invariant at every split.
fn check_splits_reduce_gini(
    node: &Node<Format>,
    xs: &[[f64; NUM_FEATURES]],
    ys: &[Format],
    idx: &[usize],
) {
    if let Node::Split { feature, threshold, left, right } = node {
        let (li, ri): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| xs[i][*feature] <= *threshold);
        assert!(!li.is_empty() && !ri.is_empty(), "split must separate samples");
        let labels = |ids: &[usize]| ids.iter().map(|&i| ys[i]).collect::<Vec<_>>();
        let parent = gini_of(&labels(idx));
        let n = idx.len() as f64;
        let weighted = li.len() as f64 / n * gini_of(&labels(&li))
            + ri.len() as f64 / n * gini_of(&labels(&ri));
        assert!(
            weighted < parent,
            "split on feature {feature} @ {threshold} does not reduce Gini: \
             {weighted} !< {parent}"
        );
        check_splits_reduce_gini(left, xs, ys, &li);
        check_splits_reduce_gini(right, xs, ys, &ri);
    }
}

/// The same walk for a response: the children's squared error around their
/// own means must total strictly less than the parent's.
fn check_splits_reduce_sse(node: &Node<f64>, xs: &Rows, ys: &[f64], idx: &[usize]) {
    if let Node::Split { feature, threshold, left, right } = node {
        let (li, ri): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| xs[i][*feature] <= *threshold);
        assert!(!li.is_empty() && !ri.is_empty(), "split must separate samples");
        let sse = |ids: &[usize]| f64::impurity(ys, ids);
        assert!(
            sse(&li) + sse(&ri) < sse(idx),
            "split on feature {feature} @ {threshold} does not reduce squared error"
        );
        check_splits_reduce_sse(left, xs, ys, &li);
        check_splits_reduce_sse(right, xs, ys, &ri);
    }
}

/// Invariant 4, for either target: reversing the samples grows the same
/// tree.
fn check_order_invariance<Y: Target>(xs: &Rows, ys: &[Y], params: TreeParams) {
    let forward = Tree::train(xs, ys, params);
    let rev_xs: Rows = xs.iter().rev().copied().collect();
    let rev_ys: Vec<Y> = ys.iter().rev().copied().collect();
    assert_eq!(Tree::train(&rev_xs, &rev_ys, params), forward);
}

/// Invariant 5, for either target: leaf populations add up to the training
/// set, and once anything was split every leaf holds at least `min_leaf`.
fn check_leaf_populations<Y: Target>(
    tree: &Tree<Y>,
    population: impl Fn(&Y::Support) -> usize,
    n: usize,
) {
    let sizes: Vec<usize> = tree.leaves().iter().map(|(_, s)| population(s)).collect();
    assert_eq!(sizes.iter().sum::<usize>(), n);
    if sizes.len() > 1 {
        assert!(sizes.iter().all(|&s| s >= tree.params().min_leaf), "{sizes:?}");
    }
}

fn meta(samples: usize) -> ModelMeta {
    ModelMeta {
        seed: 1,
        grid: "proptest".into(),
        samples,
        measured: 0,
        analytic_fallback: 0,
        analytic: samples,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Invariant 1: every kept split strictly reduces weighted Gini.
    #[test]
    fn splits_strictly_reduce_gini((xs, ys) in arb_training_set(), params in arb_params()) {
        let tree = DecisionTree::train(&xs, &ys, params);
        let idx: Vec<usize> = (0..xs.len()).collect();
        check_splits_reduce_gini(tree.root(), &xs, &ys, &idx);
    }

    /// Invariant 2: predictions come from the training label set — on the
    /// training samples themselves and on arbitrary unseen points.
    #[test]
    fn predictions_stay_in_the_training_label_set(
        (xs, ys) in arb_training_set(),
        params in arb_params(),
        probe in proptest::collection::vec(-100i32..=100, NUM_FEATURES),
    ) {
        let tree = DecisionTree::train(&xs, &ys, params);
        for x in &xs {
            prop_assert!(ys.contains(&tree.predict(x)));
        }
        let mut x = [0.0; NUM_FEATURES];
        for (slot, v) in x.iter_mut().zip(&probe) {
            *slot = *v as f64 / 7.0;
        }
        prop_assert!(ys.contains(&tree.predict(&x)), "unseen point predicted unseen class");
        for f in tree.predictable_formats() {
            prop_assert!(ys.contains(&f));
        }
    }

    /// Invariant 3: JSON round trip is the identity — structurally, on
    /// predictions, and on the serialised bytes.
    #[test]
    fn model_json_round_trips((xs, ys) in arb_training_set(), params in arb_params()) {
        let tree = DecisionTree::train(&xs, &ys, params);
        let model =
            TrainedModel { meta: meta(xs.len()), tree, blocks: None };
        let doc = model.to_json();
        let restored = TrainedModel::from_json(&doc).expect("own output must parse");
        prop_assert_eq!(&restored, &model);
        prop_assert_eq!(restored.to_json(), doc, "canonical form");
        for x in &xs {
            prop_assert_eq!(restored.tree.predict(x), model.tree.predict(x));
        }
    }

    /// Invariant 1 for a response: every kept split strictly reduces SSE.
    #[test]
    fn splits_strictly_reduce_sse((xs, ys) in arb_regression_set(), params in arb_params()) {
        let tree = RegressionTree::train(&xs, &ys, params);
        let idx: Vec<usize> = (0..xs.len()).collect();
        check_splits_reduce_sse(tree.root(), &xs, &ys, &idx);
    }

    /// Invariant 3 for a response: a regression tree rides a model document
    /// as a block tree and must come back identical.
    #[test]
    fn block_tree_json_round_trips(
        (cx, cy) in arb_training_set(),
        (xs, ys) in arb_regression_set(),
        params in arb_params(),
    ) {
        let blocks = BlockModel { trees: vec![(Format::Csr, RegressionTree::train(&xs, &ys, params))] };
        let model = TrainedModel {
            meta: meta(cx.len()),
            tree: DecisionTree::train(&cx, &cy, params),
            blocks: Some(blocks),
        };
        let doc = model.to_json();
        let restored = TrainedModel::from_json(&doc).expect("own output must parse");
        prop_assert_eq!(&restored, &model);
        prop_assert_eq!(restored.to_json(), doc, "canonical form");
    }

    /// Invariants 4 and 5, both targets.
    #[test]
    fn growth_ignores_sample_order_and_respects_min_leaf(
        (cx, cy) in arb_training_set(),
        (xs, ys) in arb_regression_set(),
        params in arb_params(),
    ) {
        check_order_invariance(&cx, &cy, params);
        check_order_invariance(&xs, &ys, params);
        let counted = |counts: &Vec<(Format, usize)>| counts.iter().map(|&(_, c)| c).sum();
        check_leaf_populations(&DecisionTree::train(&cx, &cy, params), counted, cx.len());
        check_leaf_populations(&RegressionTree::train(&xs, &ys, params), |&n| n, xs.len());
    }
}
