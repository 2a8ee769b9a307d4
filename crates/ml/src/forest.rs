//! Random-forest regression (bagged CART trees with per-split feature
//! subsampling).

use crate::estimator::{check_training_set, Regressor};
use crate::tree::{DecisionTreeRegressor, Ranks};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Random forest: an average of `n_trees` CART trees, each grown on a
/// bootstrap sample with `max_features` features considered per split.
///
/// The trees share one presort: `fit` ranks every feature's values once,
/// and each bootstrap's per-feature order is a counting sort of its
/// positions by that rank, positions ascending within a rank. That is the
/// order a stable sort of the gathered bootstrap rows gives, so every tree
/// is bit-identical to a [`DecisionTreeRegressor`] fitted on a copy of its
/// bootstrap rows, without the copy; `crates/ml/tests/tree_equivalence.rs`
/// checks it.
#[derive(Debug, Clone)]
pub struct RandomForestRegressor {
    n_trees: usize,
    max_depth: usize,
    min_samples_leaf: usize,
    max_features_fraction: f64,
    seed: u64,
    trees: Vec<DecisionTreeRegressor>,
}

impl RandomForestRegressor {
    /// Forest with `n_trees` trees of depth `max_depth`.
    ///
    /// `max_features_fraction` is the per-split feature fraction (0 → use
    /// √d, the classic default).
    ///
    /// # Panics
    ///
    /// Panics if `n_trees == 0` or the fraction is outside `[0, 1]`.
    pub fn new(n_trees: usize, max_depth: usize, seed: u64) -> RandomForestRegressor {
        assert!(n_trees > 0);
        RandomForestRegressor {
            n_trees,
            max_depth,
            min_samples_leaf: 1,
            max_features_fraction: 0.0,
            seed,
            trees: Vec::new(),
        }
    }

    /// Override the per-split feature fraction.
    ///
    /// # Panics
    ///
    /// Panics if the fraction is outside `(0, 1]`.
    pub fn with_max_features_fraction(mut self, fraction: f64) -> RandomForestRegressor {
        assert!(fraction > 0.0 && fraction <= 1.0);
        self.max_features_fraction = fraction;
        self
    }

    /// Override the minimum leaf size (default 1).
    pub fn with_min_samples_leaf(mut self, n: usize) -> RandomForestRegressor {
        self.min_samples_leaf = n.max(1);
        self
    }

    /// Number of fitted trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }
}

impl Regressor for RandomForestRegressor {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        check_training_set(x, y);
        let n = x.len();
        let d = x[0].len();
        let max_features = if self.max_features_fraction > 0.0 {
            ((d as f64 * self.max_features_fraction).round() as usize).clamp(1, d)
        } else {
            (d as f64).sqrt().round().max(1.0) as usize
        };
        self.trees.clear();
        let ranks = Ranks::new(x);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let (mut sample, mut by) = (vec![0; n], vec![0.0; n]);
        for _ in 0..self.n_trees {
            // Bootstrap sample.
            for (s, t) in sample.iter_mut().zip(&mut by) {
                *s = rng.gen_range(0..n);
                *t = y[*s];
            }
            let mut tree = DecisionTreeRegressor::new(self.max_depth, 2, self.min_samples_leaf)
                .with_max_features(max_features);
            tree.fit_sample(&ranks, &sample, &by, Some(&mut rng));
            self.trees.push(tree);
        }
    }

    fn predict_one(&self, x: &[f64]) -> f64 {
        assert!(!self.trees.is_empty(), "predict before fit");
        self.trees.iter().map(|t| t.predict_one(x)).sum::<f64>() / self.trees.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2;

    fn friedman_like(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        // Deterministic non-linear target over 4 features.
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    ((i * 13) % 97) as f64 / 97.0,
                    ((i * 29) % 89) as f64 / 89.0,
                    ((i * 7) % 83) as f64 / 83.0,
                    ((i * 53) % 79) as f64 / 79.0,
                ]
            })
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| (3.0 * r[0] * r[1]).sin() + 2.0 * (r[2] - 0.5).powi(2) + r[3])
            .collect();
        (x, y)
    }

    #[test]
    fn forest_fits_nonlinear_data() {
        let (x, y) = friedman_like(300);
        let mut f = RandomForestRegressor::new(30, 8, 42);
        f.fit(&x, &y);
        let pred = f.predict(&x);
        assert!(r2(&y, &pred) > 0.9, "r2 = {}", r2(&y, &pred));
    }

    #[test]
    fn forest_is_deterministic_given_seed() {
        let (x, y) = friedman_like(100);
        let mut a = RandomForestRegressor::new(10, 6, 7);
        a.fit(&x, &y);
        let mut b = RandomForestRegressor::new(10, 6, 7);
        b.fit(&x, &y);
        for q in x.iter().take(20) {
            assert_eq!(a.predict_one(q), b.predict_one(q));
        }
        let mut c = RandomForestRegressor::new(10, 6, 8);
        c.fit(&x, &y);
        let differs = x
            .iter()
            .take(20)
            .any(|q| a.predict_one(q) != c.predict_one(q));
        assert!(differs, "different seeds must differ somewhere");
    }

    #[test]
    fn more_trees_smooth_predictions() {
        let (x, y) = friedman_like(200);
        // Held-out half.
        let (train_x, test_x) = x.split_at(100);
        let (train_y, test_y) = y.split_at(100);
        let mut small = RandomForestRegressor::new(2, 8, 3);
        small.fit(train_x, train_y);
        let mut big = RandomForestRegressor::new(40, 8, 3);
        big.fit(train_x, train_y);
        let r_small = r2(test_y, &small.predict(test_x));
        let r_big = r2(test_y, &big.predict(test_x));
        assert!(
            r_big >= r_small - 0.05,
            "ensemble should not be much worse: {r_big} vs {r_small}"
        );
        assert_eq!(big.num_trees(), 40);
    }
}
