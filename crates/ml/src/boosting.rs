//! Gradient-boosted regression trees (squared loss), one of the boosting
//! algorithms the paper's future-work section calls for.

use crate::estimator::{check_training_set, Regressor};
use crate::tree::{DecisionTreeRegressor, Ranks};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Gradient boosting with CART base learners and squared loss: each stage
/// fits a shallow tree to the current residuals and is added with a
/// shrinkage factor (`learning_rate`). Optional stochastic row subsampling
/// gives the classic "stochastic gradient boosting" variant.
///
/// `fit` ranks every feature's values once and every stage presorts its
/// rows from those ranks by a counting sort (see
/// [`RandomForestRegressor`](crate::RandomForestRegressor)); without
/// subsampling, a stage updates the running predictions from the leaf
/// each training row fell into while the tree grew. Every stage is
/// bit-identical to a [`DecisionTreeRegressor`] fitted on the stage's
/// rows and residuals and then asked to predict each row, which
/// `crates/ml/tests/tree_equivalence.rs` checks.
#[derive(Debug, Clone)]
pub struct GradientBoostingRegressor {
    n_estimators: usize,
    learning_rate: f64,
    max_depth: usize,
    subsample: f64,
    seed: u64,
    base: f64,
    stages: Vec<DecisionTreeRegressor>,
}

impl GradientBoostingRegressor {
    /// Boosting ensemble of `n_estimators` trees of depth `max_depth`
    /// blended with `learning_rate`.
    ///
    /// # Panics
    ///
    /// Panics if `n_estimators == 0` or `learning_rate` is outside
    /// `(0, 1]`.
    pub fn new(n_estimators: usize, learning_rate: f64, max_depth: usize) -> Self {
        assert!(n_estimators > 0);
        assert!(learning_rate > 0.0 && learning_rate <= 1.0);
        GradientBoostingRegressor {
            n_estimators,
            learning_rate,
            max_depth,
            subsample: 1.0,
            seed: 0,
            base: 0.0,
            stages: Vec::new(),
        }
    }

    /// Enable stochastic row subsampling (fraction in `(0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if the fraction is outside `(0, 1]`.
    pub fn with_subsample(mut self, fraction: f64, seed: u64) -> Self {
        assert!(fraction > 0.0 && fraction <= 1.0);
        self.subsample = fraction;
        self.seed = seed;
        self
    }

    /// Number of fitted stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }
}

impl Regressor for GradientBoostingRegressor {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        check_training_set(x, y);
        let n = x.len();
        self.base = y.iter().sum::<f64>() / n as f64;
        self.stages.clear();
        let mut current: Vec<f64> = vec![self.base; n];
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let ranks = Ranks::new(x);
        let all: Vec<usize> = (0..n).collect();
        let mut residual = vec![0.0; n];
        for _ in 0..self.n_estimators {
            for ((r, t), p) in residual.iter_mut().zip(y).zip(&current) {
                *r = t - p;
            }
            let mut tree = DecisionTreeRegressor::new(self.max_depth, 2, 1);
            if self.subsample < 1.0 {
                let keep = ((n as f64 * self.subsample).round() as usize).max(2).min(n);
                let mut idx = all.clone();
                for i in 0..keep {
                    let j = rng.gen_range(i..n);
                    idx.swap(i, j);
                }
                idx.truncate(keep);
                let fit_r: Vec<f64> = idx.iter().map(|&i| residual[i]).collect();
                tree.fit_sample(&ranks, &idx, &fit_r, None);
                for (c, xi) in current.iter_mut().zip(x) {
                    *c += self.learning_rate * tree.predict_one(xi);
                }
            } else {
                // Every row is in the sample, so its leaf value is the
                // tree's prediction for it.
                let fitted = tree.fit_sample(&ranks, &all, &residual, None);
                for (c, v) in current.iter_mut().zip(fitted) {
                    *c += self.learning_rate * v;
                }
            }
            self.stages.push(tree);
        }
    }

    fn predict_one(&self, x: &[f64]) -> f64 {
        assert!(!self.stages.is_empty(), "predict before fit");
        self.base
            + self
                .stages
                .iter()
                .map(|t| self.learning_rate * t.predict_one(x))
                .sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{r2, rmse};

    fn wavy(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64 * 6.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0].sin() + 0.3 * r[0]).collect();
        (x, y)
    }

    #[test]
    fn boosting_reduces_training_error_monotonically() {
        let (x, y) = wavy(120);
        let mut last = f64::INFINITY;
        for stages in [1usize, 5, 25, 100] {
            let mut m = GradientBoostingRegressor::new(stages, 0.2, 3);
            m.fit(&x, &y);
            let e = rmse(&y, &m.predict(&x));
            assert!(e <= last + 1e-9, "{stages} stages: {e} > {last}");
            last = e;
        }
        assert!(last < 0.05, "final training RMSE = {last}");
    }

    #[test]
    fn boosting_beats_single_tree_of_same_depth() {
        let (x, y) = wavy(150);
        let mut tree = DecisionTreeRegressor::new(3, 2, 1);
        tree.fit(&x, &y);
        let mut gbm = GradientBoostingRegressor::new(80, 0.2, 3);
        gbm.fit(&x, &y);
        let r_tree = r2(&y, &tree.predict(&x));
        let r_gbm = r2(&y, &gbm.predict(&x));
        assert!(r_gbm > r_tree, "{r_gbm} vs {r_tree}");
    }

    #[test]
    fn subsampling_a_single_row_keeps_it() {
        let mut m = GradientBoostingRegressor::new(5, 0.5, 3).with_subsample(0.5, 1);
        m.fit(&[vec![1.0]], &[0.25]);
        assert_eq!(m.predict_one(&[1.0]), 0.25);
        assert_eq!(m.num_stages(), 5);
    }

    #[test]
    fn subsampled_boosting_still_fits() {
        let (x, y) = wavy(150);
        let mut m = GradientBoostingRegressor::new(120, 0.15, 3).with_subsample(0.6, 11);
        m.fit(&x, &y);
        assert!(r2(&y, &m.predict(&x)) > 0.95);
        assert_eq!(m.num_stages(), 120);
    }
}
