//! k-Nearest-Neighbors regression (§IV-B.2 of the paper).
//!
//! The paper's tuned configuration is `k = 3` with the Manhattan distance
//! and inverse-distance weighting; all of those are parameters here. A
//! KD-tree accelerates queries on low-dimensional data, with an exact
//! brute-force fallback (both are exposed and property-tested against each
//! other).

use crate::estimator::{check_training_set, Regressor};

/// Distance metric between feature vectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distance {
    /// L1 (the paper's tuned choice).
    Manhattan,
    /// L2.
    Euclidean,
    /// L∞.
    Chebyshev,
    /// General Minkowski with exponent `p ≥ 1`.
    Minkowski(f64),
}

impl Distance {
    /// Distance between two equal-length vectors.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on length mismatch.
    pub fn eval(self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Distance::Manhattan => a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum(),
            Distance::Euclidean => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt(),
            Distance::Chebyshev => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max),
            Distance::Minkowski(p) => {
                assert!(p >= 1.0, "Minkowski exponent must be >= 1");
                a.iter()
                    .zip(b)
                    .map(|(x, y)| (x - y).abs().powf(p))
                    .sum::<f64>()
                    .powf(1.0 / p)
            }
        }
    }

    /// Distance contribution of a single axis gap (used for KD-tree
    /// pruning): for every supported metric, the full distance is at least
    /// the per-axis gap.
    fn axis_lower_bound(self, gap: f64) -> f64 {
        gap.abs()
    }
}

/// Neighbor weighting for the prediction average.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightScheme {
    /// Plain average of the k neighbors.
    Uniform,
    /// Weight 1/d; an exact-match neighbor short-circuits the prediction
    /// (scikit-learn behaviour).
    InverseDistance,
}

/// k-NN regressor.
///
/// # Example
///
/// ```
/// use ffr_ml::{Distance, KnnRegressor, Regressor, WeightScheme};
///
/// let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
/// let y = vec![0.0, 1.0, 2.0, 3.0];
/// let mut m = KnnRegressor::new(2, Distance::Manhattan, WeightScheme::Uniform);
/// m.fit(&x, &y);
/// assert!((m.predict_one(&[1.6]) - 1.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct KnnRegressor {
    k: usize,
    distance: Distance,
    weights: WeightScheme,
    use_kd_tree: bool,
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
    tree: Option<KdTree>,
}

impl KnnRegressor {
    /// New regressor with the paper's hyperparameter space.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize, distance: Distance, weights: WeightScheme) -> KnnRegressor {
        assert!(k > 0, "k must be positive");
        KnnRegressor {
            k,
            distance,
            weights,
            use_kd_tree: true,
            x: Vec::new(),
            y: Vec::new(),
            tree: None,
        }
    }

    /// The paper's tuned model: `k = 3`, Manhattan, inverse-distance.
    pub fn paper_tuned() -> KnnRegressor {
        KnnRegressor::new(3, Distance::Manhattan, WeightScheme::InverseDistance)
    }

    /// Disable the KD-tree (exact brute-force search): the reference the
    /// tree's results are tested against.
    #[cfg(test)]
    fn with_brute_force(mut self) -> KnnRegressor {
        self.use_kd_tree = false;
        self
    }

    /// `(index, distance)` of the k nearest training points.
    fn neighbors(&self, x: &[f64]) -> Vec<(usize, f64)> {
        match &self.tree {
            Some(tree) => tree.k_nearest(x, self.k, self.distance, &self.x),
            None => brute_force_k_nearest(&self.x, x, self.k, self.distance),
        }
    }
}

impl Regressor for KnnRegressor {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        check_training_set(x, y);
        self.x = x.to_vec();
        self.y = y.to_vec();
        self.tree = if self.use_kd_tree {
            Some(KdTree::build(x))
        } else {
            None
        };
    }

    fn predict_one(&self, x: &[f64]) -> f64 {
        assert!(!self.x.is_empty(), "predict before fit");
        let neigh = self.neighbors(x);
        match self.weights {
            WeightScheme::Uniform => {
                neigh.iter().map(|&(i, _)| self.y[i]).sum::<f64>() / neigh.len() as f64
            }
            WeightScheme::InverseDistance => {
                // Exact matches dominate: average the zero-distance ones.
                let exact: Vec<usize> = neigh
                    .iter()
                    .filter(|&&(_, d)| d == 0.0)
                    .map(|&(i, _)| i)
                    .collect();
                if !exact.is_empty() {
                    return exact.iter().map(|&i| self.y[i]).sum::<f64>() / exact.len() as f64;
                }
                let mut num = 0.0;
                let mut den = 0.0;
                for &(i, d) in &neigh {
                    let w = 1.0 / d;
                    num += w * self.y[i];
                    den += w;
                }
                num / den
            }
        }
    }
}

fn brute_force_k_nearest(
    train: &[Vec<f64>],
    x: &[f64],
    k: usize,
    distance: Distance,
) -> Vec<(usize, f64)> {
    let mut all: Vec<(usize, f64)> = train
        .iter()
        .enumerate()
        .map(|(i, t)| (i, distance.eval(t, x)))
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.truncate(k.min(all.len()));
    all
}

/// A KD-tree over training points, generic over the Minkowski family via
/// per-axis lower-bound pruning.
#[derive(Debug, Clone)]
pub(crate) struct KdTree {
    nodes: Vec<KdNode>,
    root: Option<usize>,
}

#[derive(Debug, Clone)]
struct KdNode {
    point: usize,
    axis: usize,
    left: Option<usize>,
    right: Option<usize>,
}

impl KdTree {
    /// Build a balanced tree (median split, cycling axes).
    pub(crate) fn build(points: &[Vec<f64>]) -> KdTree {
        let mut nodes = Vec::with_capacity(points.len());
        let mut idx: Vec<usize> = (0..points.len()).collect();
        let dims = points.first().map_or(0, |p| p.len());
        let root = Self::build_rec(points, &mut idx[..], 0, dims, &mut nodes);
        KdTree { nodes, root }
    }

    fn build_rec(
        points: &[Vec<f64>],
        idx: &mut [usize],
        depth: usize,
        dims: usize,
        nodes: &mut Vec<KdNode>,
    ) -> Option<usize> {
        if idx.is_empty() {
            return None;
        }
        let axis = depth % dims.max(1);
        idx.sort_by(|&a, &b| points[a][axis].total_cmp(&points[b][axis]).then(a.cmp(&b)));
        let mid = idx.len() / 2;
        let point = idx[mid];
        let node_index = nodes.len();
        nodes.push(KdNode {
            point,
            axis,
            left: None,
            right: None,
        });
        let (lo, rest) = idx.split_at_mut(mid);
        let hi = &mut rest[1..];
        let left = Self::build_rec(points, lo, depth + 1, dims, nodes);
        let right = Self::build_rec(points, hi, depth + 1, dims, nodes);
        nodes[node_index].left = left;
        nodes[node_index].right = right;
        Some(node_index)
    }

    /// Exact k-nearest-neighbor query.
    pub(crate) fn k_nearest(
        &self,
        x: &[f64],
        k: usize,
        distance: Distance,
        points: &[Vec<f64>],
    ) -> Vec<(usize, f64)> {
        // Max-heap of the current best k, by distance (then index for
        // determinism).
        let mut best: Vec<(usize, f64)> = Vec::with_capacity(k + 1);
        if let Some(root) = self.root {
            self.search(root, x, k, distance, points, &mut best);
        }
        best.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        best
    }

    fn search(
        &self,
        node_idx: usize,
        x: &[f64],
        k: usize,
        distance: Distance,
        points: &[Vec<f64>],
        best: &mut Vec<(usize, f64)>,
    ) {
        let node = &self.nodes[node_idx];
        let d = distance.eval(&points[node.point], x);
        insert_candidate(best, k, (node.point, d));

        let axis_gap = x[node.axis] - points[node.point][node.axis];
        let (near, far) = if axis_gap <= 0.0 {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        };
        if let Some(n) = near {
            self.search(n, x, k, distance, points, best);
        }
        let bound = distance.axis_lower_bound(axis_gap);
        let worst = current_worst(best, k);
        if let Some(f) = far {
            if best.len() < k || bound <= worst {
                self.search(f, x, k, distance, points, best);
            }
        }
    }
}

fn insert_candidate(best: &mut Vec<(usize, f64)>, k: usize, cand: (usize, f64)) {
    best.push(cand);
    best.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    if best.len() > k {
        best.pop();
    }
}

fn current_worst(best: &[(usize, f64)], k: usize) -> f64 {
    if best.len() < k {
        f64::INFINITY
    } else {
        best.last().map_or(f64::INFINITY, |&(_, d)| d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn interpolates_step_function() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 0.0 } else { 1.0 }).collect();
        let mut m = KnnRegressor::new(3, Distance::Euclidean, WeightScheme::Uniform);
        m.fit(&x, &y);
        assert_eq!(m.predict_one(&[2.0]), 0.0);
        assert_eq!(m.predict_one(&[15.0]), 1.0);
    }

    #[test]
    fn inverse_distance_weighting_prefers_closer() {
        let x = vec![vec![0.0], vec![10.0]];
        let y = vec![0.0, 1.0];
        let mut m = KnnRegressor::new(2, Distance::Manhattan, WeightScheme::InverseDistance);
        m.fit(&x, &y);
        // Query at 1.0: weights 1/1 and 1/9 -> (0*1 + 1*(1/9)) / (10/9) = 0.1.
        assert!((m.predict_one(&[1.0]) - 0.1).abs() < 1e-12);
        // Exact match short-circuits.
        assert_eq!(m.predict_one(&[10.0]), 1.0);
    }

    #[test]
    fn kd_tree_matches_brute_force() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let points: Vec<Vec<f64>> = (0..300)
            .map(|_| (0..5).map(|_| rng.gen_range(-10.0..10.0)).collect())
            .collect();
        let tree = KdTree::build(&points);
        for metric in [
            Distance::Manhattan,
            Distance::Euclidean,
            Distance::Chebyshev,
        ] {
            for _ in 0..50 {
                let q: Vec<f64> = (0..5).map(|_| rng.gen_range(-12.0..12.0)).collect();
                let got = tree.k_nearest(&q, 7, metric, &points);
                let want = brute_force_k_nearest(&points, &q, 7, metric);
                let gd: Vec<f64> = got.iter().map(|&(_, d)| d).collect();
                let wd: Vec<f64> = want.iter().map(|&(_, d)| d).collect();
                for (a, b) in gd.iter().zip(&wd) {
                    assert!((a - b).abs() < 1e-9, "{metric:?}: {gd:?} vs {wd:?}");
                }
            }
        }
    }

    #[test]
    fn brute_and_tree_regressors_agree() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let x: Vec<Vec<f64>> = (0..100)
            .map(|_| (0..3).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] + r[1] * r[2]).collect();
        let mut fast = KnnRegressor::new(5, Distance::Manhattan, WeightScheme::InverseDistance);
        fast.fit(&x, &y);
        let mut slow = fast.clone().with_brute_force();
        slow.fit(&x, &y);
        for _ in 0..30 {
            let q: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..1.0)).collect();
            let a = fast.predict_one(&q);
            let b = slow.predict_one(&q);
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn minkowski_reduces_to_known_metrics() {
        let a = [1.0, 2.0];
        let b = [4.0, 6.0];
        assert!((Distance::Minkowski(1.0).eval(&a, &b) - 7.0).abs() < 1e-9);
        assert!((Distance::Minkowski(2.0).eval(&a, &b) - 5.0).abs() < 1e-9);
        assert_eq!(Distance::Chebyshev.eval(&a, &b), 4.0);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = KnnRegressor::new(0, Distance::Euclidean, WeightScheme::Uniform);
    }
}
