//! Pure-Rust CART: one top-down inducer, instantiated for two targets.
//!
//! Classic induction (Breiman et al.): at every node try all axis-aligned
//! splits on all features, keep the one with the largest impurity
//! reduction, recurse until the node is pure or a pruning limit (depth,
//! leaf size, minimum gain) fires. What is being reduced depends on the
//! [`Target`]: a [`DecisionTree`] predicts a [`Format`] and minimises Gini
//! impurity, a [`RegressionTree`] predicts an `f64` response (leaf mean)
//! and minimises the sum of squared errors. Row width is a runtime value;
//! both users — the format classifier and the per-format block-size trees —
//! train on [`crate::features::NUM_FEATURES`].
//!
//! Everything is deterministic: candidate thresholds are midpoints between
//! consecutive *distinct* sorted values and ties in gain break towards the
//! lower feature index, then the lower threshold — so the same samples
//! always grow the same tree, whatever the sample order.

use dls_sparse::telemetry::format_index;
use dls_sparse::Format;
use std::fmt::Debug;

/// Pruning limits for tree induction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum split depth (root = depth 0; a tree of only a leaf has
    /// depth 0).
    pub max_depth: usize,
    /// Minimum samples on each side of a split.
    pub min_leaf: usize,
    /// Minimum impurity gain for a split to be kept. Strictly positive, so
    /// every kept split strictly reduces impurity.
    pub min_gain: f64,
}

impl TreeParams {
    /// Limits every format classifier in the workspace is grown with
    /// (`min_gain` is on Gini gain normalised by the node's sample count).
    pub const CLASSIFIER: Self = Self { max_depth: 8, min_leaf: 3, min_gain: 1e-9 };
    /// Limits every regression tree is grown with (`min_gain` is on the
    /// node's total squared-error reduction).
    pub(crate) const REGRESSOR: Self = Self { max_depth: 12, min_leaf: 1, min_gain: 1e-12 };
}

/// Per-class sample counts, indexed by [`format_index`].
pub type ClassCounts = [usize; Format::ALL.len()];

/// What a tree predicts. The inducer is generic over this: it only ever
/// asks a target for the impurity of a sample subset, the gain of a
/// candidate split given running statistics of both sides, and the leaf to
/// put under a subset it will not split further.
pub trait Target: Copy + PartialEq + Debug {
    /// What a leaf remembers of its training samples besides the
    /// prediction itself.
    type Support: Clone + PartialEq + Debug;
    /// Running sufficient statistics of a sample subset.
    type Stats: Copy + Default;

    /// Folds one response into `stats`.
    fn add(stats: &mut Self::Stats, y: Self);
    /// Statistics of `total` with `left` taken out.
    fn rest(total: &Self::Stats, left: &Self::Stats) -> Self::Stats;
    /// Impurity of `ys[idx]`; zero means nothing is left to separate.
    fn impurity(ys: &[Self], idx: &[usize]) -> f64;
    /// Impurity reduction of splitting a node of impurity `parent` into
    /// `nl` samples with statistics `left` and `nr` with `right`.
    fn gain(parent: f64, left: &Self::Stats, nl: usize, right: &Self::Stats, nr: usize) -> f64;
    /// The leaf for `ys[idx]`: prediction and support.
    fn leaf(ys: &[Self], idx: &[usize]) -> (Self, Self::Support);
}

/// One tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node<Y: Target> {
    /// Terminal node.
    Leaf {
        /// The prediction: majority class, or mean response.
        value: Y,
        /// Training support: for a class, the non-zero counts per class in
        /// [`Format::ALL`] order (introspection and confidence reporting);
        /// for a response, the number of samples that landed here.
        support: Y::Support,
    },
    /// Internal node: `x[feature] <= threshold` goes left, else right.
    Split {
        /// Feature index into the sample rows.
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Subtree for `x[feature] <= threshold`.
        left: Box<Node<Y>>,
        /// Subtree for `x[feature] > threshold`.
        right: Box<Node<Y>>,
    },
}

/// A trained CART over fixed-width feature rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Tree<Y: Target> {
    width: usize,
    params: TreeParams,
    root: Node<Y>,
}

/// A CART classifier mapping feature vectors to formats.
pub type DecisionTree = Tree<Format>;

/// A CART regression tree (leaves predict their training mean).
pub type RegressionTree = Tree<f64>;

/// Gini impurity `1 - Σ p_k²` of a class histogram.
pub fn gini(counts: &ClassCounts) -> f64 {
    let n: usize = counts.iter().sum();
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / n).powi(2)).sum::<f64>()
}

/// Index of the largest entry. Ties go to the **later** index
/// (`Iterator::max_by_key` keeps the last maximum): a tied leaf histogram
/// resolves to the later [`Format::ALL`] entry. Every
/// committed model and `BENCH_selector.json` were produced under this rule,
/// so it is pinned by a test rather than "fixed".
pub(crate) fn arg_max<T: Ord>(xs: &[T]) -> usize {
    (0..xs.len()).max_by_key(|&k| &xs[k]).expect("arg_max of an empty slice")
}

fn counts_of(ys: &[Format], idx: &[usize]) -> ClassCounts {
    let mut counts = ClassCounts::default();
    for &i in idx {
        counts[format_index(ys[i])] += 1;
    }
    counts
}

impl Target for Format {
    type Support = Vec<(Format, usize)>;
    type Stats = ClassCounts;

    fn add(stats: &mut ClassCounts, y: Format) {
        stats[format_index(y)] += 1;
    }

    fn rest(total: &ClassCounts, left: &ClassCounts) -> ClassCounts {
        let mut right = *total;
        for (r, l) in right.iter_mut().zip(left) {
            *r -= l;
        }
        right
    }

    fn impurity(ys: &[Format], idx: &[usize]) -> f64 {
        gini(&counts_of(ys, idx))
    }

    fn gain(parent: f64, left: &ClassCounts, nl: usize, right: &ClassCounts, nr: usize) -> f64 {
        parent - (nl as f64 * gini(left) + nr as f64 * gini(right)) / (nl + nr) as f64
    }

    fn leaf(ys: &[Format], idx: &[usize]) -> (Format, Self::Support) {
        let counts = counts_of(ys, idx);
        let named =
            Format::ALL.iter().map(|&f| (f, counts[format_index(f)])).filter(|&(_, c)| c > 0);
        (Format::ALL[arg_max(&counts)], named.collect())
    }
}

impl Target for f64 {
    type Support = usize;
    /// `(Σy, Σy²)`: every candidate split's SSE comes out of the identity
    /// `SSE = Σy² − (Σy)²/n`.
    type Stats = (f64, f64);

    fn add(stats: &mut (f64, f64), y: f64) {
        stats.0 += y;
        stats.1 += y * y;
    }

    fn rest(total: &(f64, f64), left: &(f64, f64)) -> (f64, f64) {
        (total.0 - left.0, total.1 - left.1)
    }

    fn impurity(ys: &[f64], idx: &[usize]) -> f64 {
        let mean = Self::leaf(ys, idx).0;
        idx.iter().map(|&i| (ys[i] - mean).powi(2)).sum()
    }

    fn gain(parent: f64, left: &(f64, f64), nl: usize, right: &(f64, f64), nr: usize) -> f64 {
        let sse = |&(sum, sq): &(f64, f64), n: usize| sq - sum * sum / n as f64;
        parent - (sse(left, nl) + sse(right, nr))
    }

    fn leaf(ys: &[f64], idx: &[usize]) -> (f64, usize) {
        (idx.iter().map(|&i| ys[i]).sum::<f64>() / idx.len() as f64, idx.len())
    }
}

impl<Y: Target> Tree<Y> {
    /// Trains a tree on `(xs[i], ys[i])` pairs; every row must have the
    /// same number of finite features. Panics on empty or mismatched
    /// inputs — training sets are produced by this workspace's own grid and
    /// calibration loops, so emptiness is a bug, not a user error.
    pub fn train<X: AsRef<[f64]>>(xs: &[X], ys: &[Y], params: TreeParams) -> Self {
        assert_eq!(xs.len(), ys.len(), "every sample needs a response");
        assert!(!xs.is_empty(), "cannot train on an empty sample set");
        assert!(params.min_gain > 0.0, "min_gain must be strictly positive");
        assert!(params.min_leaf >= 1, "min_leaf must be at least 1");
        let width = xs[0].as_ref().len();
        for x in xs {
            assert_eq!(x.as_ref().len(), width, "feature width mismatch");
        }
        let idx: Vec<usize> = (0..xs.len()).collect();
        let root = build(xs, ys, &idx, width, &params, 0);
        Self { width, params, root }
    }

    /// Rebuilds a tree from deserialised parts (used by model loading).
    pub(crate) fn from_parts(width: usize, params: TreeParams, root: Node<Y>) -> Self {
        Self { width, params, root }
    }

    /// The feature width the tree was trained on.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The pruning parameters the tree was trained with.
    pub fn params(&self) -> TreeParams {
        self.params
    }

    /// The root node, for serialisation and structural checks.
    pub fn root(&self) -> &Node<Y> {
        &self.root
    }

    /// Walks `x` down to its leaf, reporting every split taken as
    /// `(feature, threshold, went_left)`.
    fn descend(&self, x: &[f64], mut taken: impl FnMut(usize, f64, bool)) -> (Y, &Y::Support) {
        assert_eq!(x.len(), self.width, "feature width mismatch");
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { value, support } => return (*value, support),
                Node::Split { feature, threshold, left, right } => {
                    let went_left = x[*feature] <= *threshold;
                    taken(*feature, *threshold, went_left);
                    node = if went_left { left } else { right };
                }
            }
        }
    }

    /// Prediction for one feature vector.
    pub fn predict(&self, x: &[f64]) -> Y {
        self.descend(x, |_, _, _| {}).0
    }

    /// Maximum depth (a single leaf is depth 0).
    pub fn depth(&self) -> usize {
        fn d<Y: Target>(node: &Node<Y>) -> usize {
            match node {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        d(&self.root)
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.leaves().len()
    }

    /// Every leaf's `(prediction, support)`, left to right.
    pub fn leaves(&self) -> Vec<(Y, &Y::Support)> {
        fn walk<'a, Y: Target>(node: &'a Node<Y>, acc: &mut Vec<(Y, &'a Y::Support)>) {
            match node {
                Node::Leaf { value, support } => acc.push((*value, support)),
                Node::Split { left, right, .. } => {
                    walk(left, acc);
                    walk(right, acc);
                }
            }
        }
        let mut acc = Vec::new();
        walk(&self.root, &mut acc);
        acc
    }

    /// How many internal nodes split on each feature — a crude but
    /// serde-free importance measure for `dls selector-info`.
    pub fn feature_split_counts(&self) -> Vec<usize> {
        fn walk<Y: Target>(node: &Node<Y>, acc: &mut [usize]) {
            if let Node::Split { feature, left, right, .. } = node {
                acc[*feature] += 1;
                walk(left, acc);
                walk(right, acc);
            }
        }
        let mut acc = vec![0; self.width];
        walk(&self.root, &mut acc);
        acc
    }
}

/// `(majority count, total)` of a leaf histogram.
fn purity(format: Format, counts: &[(Format, usize)]) -> (usize, usize) {
    let own = counts.iter().find(|&&(f, _)| f == format).map_or(0, |&(_, c)| c);
    (own, counts.iter().map(|&(_, c)| c).sum())
}

impl Tree<Format> {
    /// Prediction plus the decision path, rendered with `names` (one per
    /// feature index) — the human-readable "why" for selection reports.
    pub(crate) fn explain(&self, x: &[f64], names: &[&str]) -> (Format, String) {
        let mut path = String::new();
        let (format, counts) = self.descend(x, |feature, threshold, went_left| {
            if !path.is_empty() {
                path.push_str(", ");
            }
            let op = if went_left { "<=" } else { ">" };
            path.push_str(&format!("{}{op}{threshold:.3}", names[feature]));
        });
        if path.is_empty() {
            path.push_str("(root)");
        }
        let (own, total) = purity(format, counts);
        (format, format!("{path} => {format} [{own}/{total} training]"))
    }

    /// The set of formats the tree can ever predict (union of leaf
    /// majorities) — by construction a subset of the training labels.
    pub fn predictable_formats(&self) -> Vec<Format> {
        let mut acc = Vec::new();
        for (format, _) in self.leaves() {
            if !acc.contains(&format) {
                acc.push(format);
            }
        }
        acc
    }
}

fn build<Y: Target, X: AsRef<[f64]>>(
    xs: &[X],
    ys: &[Y],
    idx: &[usize],
    width: usize,
    params: &TreeParams,
    depth: usize,
) -> Node<Y> {
    let leaf = || {
        let (value, support) = Y::leaf(ys, idx);
        Node::Leaf { value, support }
    };
    let parent = Y::impurity(ys, idx);
    let n = idx.len();
    if depth >= params.max_depth || n < 2 * params.min_leaf || parent <= 0.0 {
        return leaf();
    }

    // (gain, feature, threshold) of the best split so far.
    let mut best: Option<(f64, usize, f64)> = None;
    let mut order: Vec<usize> = Vec::with_capacity(n);
    for feature in 0..width {
        let at = |i: usize| xs[i].as_ref()[feature];
        order.clear();
        order.extend_from_slice(idx);
        // Secondary sort on the index keeps the scan deterministic when
        // feature values tie.
        order.sort_by(|&a, &b| at(a).partial_cmp(&at(b)).expect("finite features").then(a.cmp(&b)));
        // Totals are folded in sorted order so a float target's sums round
        // the same way whatever order the samples arrived in.
        let mut total = Y::Stats::default();
        for &i in &order {
            Y::add(&mut total, ys[i]);
        }
        let mut left = Y::Stats::default();
        for k in 0..n - 1 {
            Y::add(&mut left, ys[order[k]]);
            let (lo, hi) = (at(order[k]), at(order[k + 1]));
            if lo == hi {
                continue; // not a boundary in feature space
            }
            let (nl, nr) = (k + 1, n - k - 1);
            if nl < params.min_leaf || nr < params.min_leaf {
                continue;
            }
            let gain = Y::gain(parent, &left, nl, &Y::rest(&total, &left), nr);
            if gain <= params.min_gain {
                continue;
            }
            // Midpoint, guarded against rounding up to `hi` (which would
            // send equal-to-hi samples left and break the partition).
            let mid = lo + (hi - lo) / 2.0;
            let threshold = if mid < hi { mid } else { lo };
            let replace = best.is_none_or(|(b_gain, b_feature, b_threshold)| {
                gain > b_gain + 1e-12
                    || ((gain - b_gain).abs() <= 1e-12
                        && (feature, threshold) < (b_feature, b_threshold))
            });
            if replace {
                best = Some((gain, feature, threshold));
            }
        }
    }

    match best {
        None => leaf(),
        Some((_, feature, threshold)) => {
            let (li, ri): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| xs[i].as_ref()[feature] <= threshold);
            Node::Split {
                feature,
                threshold,
                left: Box::new(build(xs, ys, &li, width, params, depth + 1)),
                right: Box::new(build(xs, ys, &ri, width, params, depth + 1)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{FEATURE_NAMES, NUM_FEATURES};

    const CLASSIFIER: TreeParams = TreeParams::CLASSIFIER;
    const REGRESSOR: TreeParams = TreeParams::REGRESSOR;

    fn xy<X: Clone, Y: Copy>(rows: &[(X, Y)]) -> (Vec<X>, Vec<Y>) {
        (rows.iter().map(|r| r.0.clone()).collect(), rows.iter().map(|r| r.1).collect())
    }

    fn vecf(d: f64, pad: f64) -> [f64; NUM_FEATURES] {
        let mut x = [0.0; NUM_FEATURES];
        x[3] = d; // density
        x[7] = pad; // ell_padding
        x
    }

    fn smallest_leaf<Y: Target>(tree: &Tree<Y>, size: impl Fn(&Y::Support) -> usize) -> usize {
        tree.leaves().iter().map(|(_, s)| size(s)).min().unwrap()
    }

    #[test]
    fn learns_a_single_threshold() {
        // density >= 0.5 ⇒ DEN, else CSR: one split suffices.
        let rows: Vec<_> = (0..20)
            .map(|k| {
                let d = k as f64 / 19.0;
                (vecf(d, 0.0), if d >= 0.5 { Format::Den } else { Format::Csr })
            })
            .collect();
        let (xs, ys) = xy(&rows);
        let tree = DecisionTree::train(&xs, &ys, CLASSIFIER);
        assert_eq!(tree.depth(), 1);
        assert_eq!(tree.n_leaves(), 2);
        for (x, y) in xs.iter().zip(&ys) {
            assert_eq!(tree.predict(x), *y);
        }
        assert_eq!(tree.feature_split_counts()[3], 1, "split is on density");

        // The same walk renders the path for selection reports.
        let (fmt, why) = tree.explain(&vecf(0.8, 0.0), &FEATURE_NAMES);
        assert_eq!(fmt, Format::Den);
        assert!(why.contains("density>"), "{why}");
        assert!(why.contains("=> DEN"), "{why}");
        assert!(why.contains("training"), "{why}");
    }

    #[test]
    fn learns_a_two_level_rule() {
        // DEN if dense; otherwise ELL when padding small, CSR when large.
        let mut rows = Vec::new();
        for k in 0..10 {
            rows.push((vecf(0.9, k as f64 / 10.0), Format::Den));
            rows.push((vecf(0.05, 0.02 * k as f64), Format::Ell));
            rows.push((vecf(0.05, 0.5 + 0.04 * k as f64), Format::Csr));
        }
        let (xs, ys) = xy(&rows);
        let tree = DecisionTree::train(&xs, &ys, CLASSIFIER);
        for (x, y) in xs.iter().zip(&ys) {
            assert_eq!(tree.predict(x), *y);
        }
        assert!(tree.depth() <= 3);
        let predictable = tree.predictable_formats();
        assert_eq!(predictable.len(), 3);
        for f in [Format::Csr, Format::Den, Format::Ell] {
            assert!(predictable.contains(&f), "missing {f}");
        }
    }

    #[test]
    fn fits_a_step_function_exactly() {
        let rows: Vec<_> =
            (0..20).map(|k| (vec![k as f64], if k < 10 { 1.0 } else { 5.0 })).collect();
        let (xs, ys) = xy(&rows);
        let tree = RegressionTree::train(&xs, &ys, REGRESSOR);
        assert_eq!(tree.depth(), 1);
        assert_eq!(tree.predict(&[3.0]), 1.0);
        assert_eq!(tree.predict(&[15.0]), 5.0);
    }

    #[test]
    fn approximates_a_monotone_curve_piecewise() {
        // y = x²: the tree must be monotone along its leaves and close at
        // the training points.
        let rows: Vec<_> = (0..32).map(|k| ([k as f64], (k * k) as f64)).collect();
        let (xs, ys) = xy(&rows);
        let tree = RegressionTree::train(&xs, &ys, REGRESSOR);
        for (x, y) in xs.iter().zip(&ys) {
            assert!((tree.predict(x) - y).abs() <= 40.0, "x={x:?} y={y}");
        }
        let at = |v: f64| tree.predict(&[v]);
        assert!(at(2.0) <= at(10.0) && at(10.0) <= at(25.0));
    }

    #[test]
    fn splits_on_the_informative_feature() {
        // Feature 1 carries the signal, feature 0 is constant.
        let rows: Vec<_> =
            (0..16).map(|k| ([7.0, k as f64], if k < 8 { -2.0 } else { 2.0 })).collect();
        let (xs, ys) = xy(&rows);
        let tree = RegressionTree::train(&xs, &ys, REGRESSOR);
        assert_eq!(tree.width(), 2);
        assert_eq!(tree.feature_split_counts(), vec![0, 1]);
    }

    #[test]
    fn nothing_to_separate_is_a_single_leaf() {
        let rows: Vec<_> = (0..8).map(|k| (vecf(k as f64, 0.0), Format::Dia)).collect();
        let (xs, ys) = xy(&rows);
        let tree = DecisionTree::train(&xs, &ys, CLASSIFIER);
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.predict(&vecf(99.0, 0.3)), Format::Dia);

        let xs: Vec<[f64; 2]> = (0..9).map(|k| [k as f64, -k as f64]).collect();
        let tree = RegressionTree::train(&xs, &[3.25; 9], REGRESSOR);
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.predict(&[100.0, 100.0]), 3.25);
    }

    #[test]
    fn min_leaf_bounds_leaf_populations() {
        // 3 DEN among 17 CSR: min_leaf = 5 cannot isolate a pure DEN leaf
        // (it may still split off a mixed-but-purer region — that is CART
        // working as intended), but every leaf must hold >= min_leaf
        // training samples.
        let mut rows = Vec::new();
        for k in 0..3 {
            rows.push((vecf(0.9 + 0.01 * k as f64, 0.0), Format::Den));
        }
        for k in 0..17 {
            rows.push((vecf(0.01 * k as f64, 0.0), Format::Csr));
        }
        let (xs, ys) = xy(&rows);
        let pruned = DecisionTree::train(&xs, &ys, TreeParams { min_leaf: 5, ..CLASSIFIER });
        let population = |counts: &Vec<(Format, usize)>| counts.iter().map(|&(_, c)| c).sum();
        assert!(smallest_leaf(&pruned, population) >= 5);
        // min_leaf = 11 forbids every split of 20 samples outright.
        let stump = DecisionTree::train(&xs, &ys, TreeParams { min_leaf: 11, ..CLASSIFIER });
        assert_eq!(stump.n_leaves(), 1);
        assert_eq!(stump.predict(&vecf(0.95, 0.0)), Format::Csr, "majority wins at the stump");
        let free = DecisionTree::train(&xs, &ys, TreeParams { min_leaf: 1, ..CLASSIFIER });
        assert_eq!(free.predict(&vecf(0.95, 0.0)), Format::Den);

        let rows: Vec<_> = (0..12).map(|k| ([k as f64], k as f64)).collect();
        let (xs, ys) = xy(&rows);
        let fat = RegressionTree::train(&xs, &ys, TreeParams { min_leaf: 6, ..REGRESSOR });
        assert!(smallest_leaf(&fat, |&n| n) >= 6);
    }

    #[test]
    fn max_depth_zero_is_a_stump() {
        let rows = [
            (vecf(0.1, 0.0), Format::Csr),
            (vecf(0.2, 0.0), Format::Csr),
            (vecf(0.9, 0.0), Format::Den),
        ];
        let (xs, ys) = xy(&rows);
        let tree = DecisionTree::train(&xs, &ys, TreeParams { max_depth: 0, ..CLASSIFIER });
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.predict(&vecf(0.9, 0.0)), Format::Csr);

        let rows: Vec<_> = (0..12).map(|k| ([k as f64], k as f64)).collect();
        let (xs, ys) = xy(&rows);
        let stump = RegressionTree::train(&xs, &ys, TreeParams { max_depth: 0, ..REGRESSOR });
        assert_eq!(stump.n_leaves(), 1);
        assert!((stump.predict(&[0.0]) - 5.5).abs() < 1e-12, "stump predicts the global mean");
    }

    #[test]
    fn training_is_order_invariant() {
        let mut rows = Vec::new();
        for k in 0..12 {
            let d = k as f64 / 11.0;
            rows.push((vecf(d, 1.0 - d), if d > 0.6 { Format::Den } else { Format::Coo }));
        }
        let (xs, ys) = xy(&rows);
        let a = DecisionTree::train(&xs, &ys, CLASSIFIER);
        let rev_xs: Vec<_> = xs.iter().rev().copied().collect();
        let rev_ys: Vec<_> = ys.iter().rev().copied().collect();
        let b = DecisionTree::train(&rev_xs, &rev_ys, CLASSIFIER);
        for x in &xs {
            assert_eq!(a.predict(x), b.predict(x));
        }
        assert_eq!(a.depth(), b.depth());
        assert_eq!(a.n_leaves(), b.n_leaves());

        let rows: Vec<_> =
            (0..14).map(|k| ([k as f64 * 0.5, (k % 3) as f64], (k * 3 % 7) as f64)).collect();
        let (xs, ys) = xy(&rows);
        let a = RegressionTree::train(&xs, &ys, REGRESSOR);
        let rev_xs: Vec<_> = xs.iter().rev().copied().collect();
        let rev_ys: Vec<_> = ys.iter().rev().copied().collect();
        let b = RegressionTree::train(&rev_xs, &rev_ys, REGRESSOR);
        for x in &xs {
            assert_eq!(a.predict(x).to_bits(), b.predict(x).to_bits());
        }
    }

    /// The tie rule as implemented (and as every committed artefact was
    /// produced): the LATER index wins.
    #[test]
    fn ties_resolve_to_the_later_entry() {
        assert_eq!(arg_max(&[2, 2, 1]), 1, "2-2-1 histogram");
        assert_eq!(arg_max(&[0, 3, 1, 3]), 3);
        assert_eq!(arg_max(&[5, 1]), 0, "a strict maximum wins wherever it sits");
        // A leaf that cannot be split (max_depth 0) over a 2-2 histogram.
        let (csr, dia) = (format_index(Format::Csr), format_index(Format::Dia));
        let (early, late) =
            if csr < dia { (Format::Csr, Format::Dia) } else { (Format::Dia, Format::Csr) };
        let xs = [vecf(0.1, 0.0), vecf(0.2, 0.0), vecf(0.3, 0.0), vecf(0.4, 0.0)];
        let ys = [early, late, late, early];
        let stump = DecisionTree::train(&xs, &ys, TreeParams { max_depth: 0, ..CLASSIFIER });
        assert_eq!(stump.predict(&xs[0]), late);
        assert!(stump.explain(&xs[0], &["a", "b"]).1.ends_with("[2/4 training]"));
    }
}
