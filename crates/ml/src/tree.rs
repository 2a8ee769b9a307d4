//! CART regression trees (one of the paper's future-work models).

use crate::estimator::{check_training_set, Regressor};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// A binary regression tree grown by variance reduction (CART).
///
/// Fitting presorts once instead of sorting at every node. Each feature
/// keeps its training rows ordered by (`f64::total_cmp` value, row
/// index), column-major with the values alongside, and each node owns
/// the range `[lo, hi)` of every feature's order plus a row list in
/// ascending index. A split partitions those ranges stably in O(d · node)
/// time. The split scan and its totals run in the feature's sorted order,
/// a node's mean sums its rows in ascending index, and rows go left on
/// `x <= threshold`: the textbook per-node-sort CART does the same f64
/// operations in the same order, so node counts and predictions are
/// bit-identical to it, which `crates/ml/tests/tree_equivalence.rs`
/// checks against a test-only copy.
///
/// # Example
///
/// ```
/// use ffr_ml::{DecisionTreeRegressor, Regressor};
///
/// let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
/// let y = vec![0.0, 0.0, 1.0, 1.0];
/// let mut t = DecisionTreeRegressor::new(4, 2, 1);
/// t.fit(&x, &y);
/// assert_eq!(t.predict_one(&[0.5]), 0.0);
/// assert_eq!(t.predict_one(&[2.5]), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct DecisionTreeRegressor {
    max_depth: usize,
    min_samples_split: usize,
    min_samples_leaf: usize,
    /// Features considered per split (`None` = all); used by the forest.
    max_features: Option<usize>,
    nodes: Vec<Node>,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

impl DecisionTreeRegressor {
    /// Tree with the given growth limits.
    ///
    /// # Panics
    ///
    /// Panics if `min_samples_split < 2` or `min_samples_leaf == 0`.
    pub fn new(max_depth: usize, min_samples_split: usize, min_samples_leaf: usize) -> Self {
        assert!(min_samples_split >= 2);
        assert!(min_samples_leaf >= 1);
        DecisionTreeRegressor {
            max_depth,
            min_samples_split,
            min_samples_leaf,
            max_features: None,
            nodes: Vec::new(),
        }
    }

    /// Restrict each split to a random subset of features (random-forest
    /// style). Only effective through [`fit_with_rng`](Self::fit_with_rng).
    pub fn with_max_features(mut self, max_features: usize) -> Self {
        self.max_features = Some(max_features.max(1));
        self
    }

    /// Number of nodes in the fitted tree.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Fit with an explicit RNG (needed when `max_features` is set).
    pub fn fit_with_rng(&mut self, x: &[Vec<f64>], y: &[f64], rng: Option<&mut ChaCha8Rng>) {
        check_training_set(x, y);
        let rows: Vec<usize> = (0..x.len()).collect();
        self.fit_sample(&Ranks::new(x), &rows, y, rng);
    }

    /// Fit on the sample whose row `j` is row `sample[j]` of the ranked
    /// set, with target `y[j]`; rows may repeat (a bootstrap). Returns
    /// each sample row's leaf value, i.e. the tree's prediction for it.
    pub(crate) fn fit_sample(
        &mut self,
        ranks: &Ranks,
        sample: &[usize],
        y: &[f64],
        rng: Option<&mut ChaCha8Rng>,
    ) -> Vec<f64> {
        assert_eq!(sample.len(), y.len(), "sample/target length mismatch");
        let m = sample.len();
        let mut grower = Grower {
            tree: self,
            y,
            m,
            sorted: ranks.presort(sample),
            rows: (0..m).collect(),
            goes_left: vec![false; m],
            features: Vec::new(),
            rng,
            spill: Vec::new(),
            row_spill: Vec::new(),
            fitted: vec![0.0; m],
        };
        grower.tree.nodes.clear();
        grower.grow(0, m, 0);
        grower.fitted
    }
}

/// Dense per-feature ranks of a training set under `f64::total_cmp`: two
/// rows share a rank in a feature exactly when their values there are
/// `total_cmp`-equal (the same bits). Built once per fit and shared by
/// every tree of a forest or boosting ensemble, it turns each tree's
/// presort into one counting sort per feature.
pub(crate) struct Ranks {
    n: usize,
    /// `rank[f * n + i]`: the rank of row `i`'s value in feature `f`.
    rank: Vec<usize>,
    /// `values[f][r]`: the value of rank `r` in feature `f`.
    values: Vec<Vec<f64>>,
}

impl Ranks {
    pub(crate) fn new(x: &[Vec<f64>]) -> Ranks {
        let n = x.len();
        let mut rank = vec![0; x[0].len() * n];
        let mut order: Vec<usize> = (0..n).collect();
        let values = rank
            .chunks_exact_mut(n)
            .enumerate()
            .map(|(f, rank)| {
                order.sort_unstable_by(|&a, &b| x[a][f].total_cmp(&x[b][f]));
                let mut distinct: Vec<f64> = Vec::new();
                for &i in &order {
                    let v = x[i][f];
                    if distinct
                        .last()
                        .is_none_or(|last| last.total_cmp(&v).is_ne())
                    {
                        distinct.push(v);
                    }
                    rank[i] = distinct.len() - 1;
                }
                distinct
            })
            .collect();
        Ranks { n, rank, values }
    }

    /// Column-major presort of `sample` (position `j` is row `sample[j]`):
    /// each feature's `(position, value)` pairs ordered by (rank, `j`).
    /// That is the order a stable `total_cmp` sort of the gathered rows
    /// gives, here by a counting sort in O(n + sample) per feature.
    fn presort(&self, sample: &[usize]) -> Vec<(usize, f64)> {
        let m = sample.len();
        let mut sorted = vec![(0, 0.0); self.values.len() * m];
        let mut next = Vec::new();
        for ((column, rank), distinct) in sorted
            .chunks_exact_mut(m)
            .zip(self.rank.chunks_exact(self.n))
            .zip(&self.values)
        {
            // `next[r]`: the slot of the next position with rank `r`.
            next.clear();
            next.resize(distinct.len() + 1, 0);
            for &i in sample {
                next[rank[i] + 1] += 1;
            }
            for r in 1..next.len() {
                next[r] += next[r - 1];
            }
            for (j, &i) in sample.iter().enumerate() {
                let r = rank[i];
                column[next[r]] = (j, distinct[r]);
                next[r] += 1;
            }
        }
        sorted
    }
}

/// The state of one fit: the tree being grown and the presorted sample
/// its nodes partition in place.
struct Grower<'a> {
    tree: &'a mut DecisionTreeRegressor,
    y: &'a [f64],
    /// Sample size: the length of every feature's column in `sorted`.
    m: usize,
    /// `sorted[f * m + k]`: the `k`-th `(position, value)` of feature `f`;
    /// a node `[lo, hi)` owns `[f * m + lo, f * m + hi)` of every feature.
    sorted: Vec<(usize, f64)>,
    /// A node's positions in ascending order, at `rows[lo..hi]`.
    rows: Vec<usize>,
    goes_left: Vec<bool>,
    features: Vec<usize>,
    rng: Option<&'a mut ChaCha8Rng>,
    spill: Vec<(usize, f64)>,
    row_spill: Vec<usize>,
    fitted: Vec<f64>,
}

impl Grower<'_> {
    fn grow(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let y = self.y;
        let rows = &self.rows[lo..hi];
        let mean = rows.iter().map(|&i| y[i]).sum::<f64>() / rows.len() as f64;
        let impure = rows.iter().any(|&i| (y[i] - mean).abs() > 1e-15);
        if depth >= self.tree.max_depth || rows.len() < self.tree.min_samples_split || !impure {
            return self.leaf(lo, hi, mean);
        }
        self.sample_features();
        let Some((feature, mid, threshold)) = self.find_split(lo, hi) else {
            return self.leaf(lo, hi, mean);
        };
        self.partition(lo, hi, feature, mid);
        // Reserve the split node position before recursing.
        let node_index = self.tree.nodes.len();
        self.tree.nodes.push(Node::Leaf { value: mean }); // placeholder
        let left = self.grow(lo, mid, depth + 1);
        let right = self.grow(mid, hi, depth + 1);
        self.tree.nodes[node_index] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        node_index
    }

    fn leaf(&mut self, lo: usize, hi: usize, value: f64) -> usize {
        for &i in &self.rows[lo..hi] {
            self.fitted[i] = value;
        }
        self.tree.nodes.push(Node::Leaf { value });
        self.tree.nodes.len() - 1
    }

    /// All features, or `max_features` distinct ones drawn from the RNG.
    fn sample_features(&mut self) {
        let d = self.sorted.len() / self.m;
        self.features.clear();
        self.features.extend(0..d);
        if let (Some(k), Some(rng)) = (self.tree.max_features, self.rng.as_deref_mut()) {
            if k < d {
                for i in 0..k {
                    let j = rng.gen_range(i..d);
                    self.features.swap(i, j);
                }
                self.features.truncate(k);
            }
        }
    }

    /// Best `(feature, mid, threshold)` by weighted-variance (SSE)
    /// reduction, where `[lo, mid)` goes left, or `None` when no
    /// admissible split exists.
    fn find_split(&self, lo: usize, hi: usize) -> Option<(usize, usize, f64)> {
        let (y, n, min_leaf) = (self.y, hi - lo, self.tree.min_samples_leaf);
        let mut best: Option<(usize, usize, f64)> = None; // (feature, cut, sse)
        for &f in &self.features {
            let column = &self.sorted[f * self.m + lo..f * self.m + hi];
            // Prefix sums over the sorted order for O(1) SSE at each cut.
            let mut sum_left = 0.0;
            let mut sq_left = 0.0;
            let total_sum: f64 = column.iter().map(|&(i, _)| y[i]).sum();
            let total_sq: f64 = column.iter().map(|&(i, _)| y[i] * y[i]).sum();
            for cut in 1..n {
                let i = column[cut - 1].0;
                sum_left += y[i];
                sq_left += y[i] * y[i];
                // Can't split between equal feature values.
                if column[cut - 1].1 == column[cut].1 {
                    continue;
                }
                if cut < min_leaf || n - cut < min_leaf {
                    continue;
                }
                let nl = cut as f64;
                let nr = (n - cut) as f64;
                let sse_left = sq_left - sum_left * sum_left / nl;
                let sum_right = total_sum - sum_left;
                let sse_right = (total_sq - sq_left) - sum_right * sum_right / nr;
                let sse = sse_left + sse_right;
                if best.is_none_or(|(_, _, b)| sse < b) {
                    best = Some((f, cut, sse));
                }
            }
        }
        best.map(|(f, cut, _)| {
            let column = &self.sorted[f * self.m + lo..];
            let threshold = split_threshold(column[cut - 1].1, column[cut].1);
            (f, lo + cut, threshold)
        })
    }

    /// Send `[lo, mid)` of `feature`'s order left: stably partition every
    /// feature's range and the row list so that each child again owns a
    /// sorted range and an ascending row list. These are exactly the rows
    /// with `x <= threshold`, because the threshold lies in `[a, b)` for
    /// the values `a`, `b` on either side of the cut.
    fn partition(&mut self, lo: usize, hi: usize, feature: usize, mid: usize) {
        let m = self.m;
        for (k, &(i, _)) in self.sorted[feature * m + lo..feature * m + hi]
            .iter()
            .enumerate()
        {
            self.goes_left[i] = lo + k < mid;
        }
        let goes_left = &self.goes_left;
        for column in self.sorted.chunks_exact_mut(m) {
            stable_partition(&mut column[lo..hi], &mut self.spill, |&(i, _)| goes_left[i]);
        }
        stable_partition(&mut self.rows[lo..hi], &mut self.row_spill, |&i| {
            goes_left[i]
        });
    }
}

/// Move the items for which `left` holds to the front of `items`, keeping
/// the relative order on both sides.
fn stable_partition<T: Copy>(items: &mut [T], spill: &mut Vec<T>, left: impl Fn(&T) -> bool) {
    spill.clear();
    let mut kept = 0;
    for k in 0..items.len() {
        let item = items[k];
        if left(&item) {
            items[kept] = item;
            kept += 1;
        } else {
            spill.push(item);
        }
    }
    items[kept..].copy_from_slice(spill);
}

/// Threshold between adjacent sorted values `a < b`: their midpoint, or
/// `a` when the midpoint is not in `[a, b)` (adjacent floats round it up
/// to `b`; `a + b` overflows). Rows go left on `x <= threshold`, so the
/// split then still separates `a` from `b`.
fn split_threshold(a: f64, b: f64) -> f64 {
    let mid = 0.5 * (a + b);
    if a <= mid && mid < b {
        mid
    } else {
        a
    }
}

impl Regressor for DecisionTreeRegressor {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        self.fit_with_rng(x, y, None);
    }

    fn predict_one(&self, x: &[f64]) -> f64 {
        assert!(!self.nodes.is_empty(), "predict before fit");
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2;

    #[test]
    fn fits_piecewise_constant_exactly() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..40)
            .map(|i| match i {
                0..=9 => 1.0,
                10..=24 => 5.0,
                _ => -2.0,
            })
            .collect();
        let mut t = DecisionTreeRegressor::new(8, 2, 1);
        t.fit(&x, &y);
        let pred = t.predict(&x);
        assert_eq!(pred, y, "piecewise-constant target is exactly learnable");
    }

    #[test]
    fn depth_limit_controls_complexity() {
        let x: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..64).map(|i| (i % 2) as f64).collect();
        let mut shallow = DecisionTreeRegressor::new(2, 2, 1);
        shallow.fit(&x, &y);
        let mut deep = DecisionTreeRegressor::new(12, 2, 1);
        deep.fit(&x, &y);
        assert!(shallow.num_nodes() < deep.num_nodes());
        let r_sh = r2(&y, &shallow.predict(&x));
        let r_dp = r2(&y, &deep.predict(&x));
        assert!(r_dp > r_sh, "deeper tree fits alternating target better");
    }

    #[test]
    fn min_samples_leaf_respected() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let mut t = DecisionTreeRegressor::new(10, 2, 5);
        t.fit(&x, &y);
        // With min_leaf = 5 on 10 points, only one split is possible.
        assert!(t.num_nodes() <= 3, "nodes = {}", t.num_nodes());
    }

    #[test]
    fn multivariate_split_selection() {
        // y depends only on feature 1; the tree must ignore feature 0.
        let x: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i * 7 % 13) as f64, if i < 25 { 0.0 } else { 1.0 }])
            .collect();
        let y: Vec<f64> = (0..50).map(|i| if i < 25 { -1.0 } else { 1.0 }).collect();
        let mut t = DecisionTreeRegressor::new(3, 2, 1);
        t.fit(&x, &y);
        assert_eq!(t.predict_one(&[5.0, 0.0]), -1.0);
        assert_eq!(t.predict_one(&[5.0, 1.0]), 1.0);
    }

    #[test]
    fn degenerate_midpoints_still_separate_adjacent_values() {
        let a = f64::from_bits(1.0f64.to_bits() + 1);
        let b = f64::from_bits(a.to_bits() + 1);
        // 0.5 * (a + b) rounds to b; the other two pairs overflow to ±∞.
        for (a, b) in [
            (a, b),
            (f64::MAX / 2.0, f64::MAX),
            (-f64::MAX, -f64::MAX / 2.0),
        ] {
            let mut t = DecisionTreeRegressor::new(4, 2, 1);
            t.fit(&[vec![a], vec![b]], &[0.0, 1.0]);
            assert_eq!(t.num_nodes(), 3, "one split, two leaves ({a}, {b})");
            assert_eq!(t.predict(&[vec![a], vec![b]]), [0.0, 1.0]);
            assert_eq!(t.predict_one(&[f64::MAX]), 1.0);
            assert_eq!(t.predict_one(&[-f64::MAX]), 0.0);
        }
    }

    #[test]
    fn constant_target_single_leaf() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![3.0; 10];
        let mut t = DecisionTreeRegressor::new(10, 2, 1);
        t.fit(&x, &y);
        assert_eq!(t.num_nodes(), 1, "pure node must not split");
        assert_eq!(t.predict_one(&[99.0]), 3.0);
    }
}
