//! Feature scaling.
//!
//! Distance- and kernel-based models (k-NN, SVR, MLP) are sensitive to
//! feature ranges; the estimation flow standardizes features exactly like
//! scikit-learn's `StandardScaler` before fitting those models.

/// Zero-mean / unit-variance standardization, fit on training data only.
#[derive(Debug, Clone, Default)]
pub struct StandardScaler {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl StandardScaler {
    /// Unfitted scaler.
    pub fn new() -> StandardScaler {
        StandardScaler::default()
    }

    /// Learn per-column mean and standard deviation.
    ///
    /// Constant columns get a standard deviation of 1 so they map to 0.
    ///
    /// # Panics
    ///
    /// Panics on an empty or ragged matrix.
    pub fn fit(&mut self, x: &[Vec<f64>]) {
        assert!(!x.is_empty(), "empty fit data");
        let d = x[0].len();
        assert!(x.iter().all(|r| r.len() == d), "ragged matrix");
        let n = x.len() as f64;
        self.mean = (0..d)
            .map(|j| x.iter().map(|r| r[j]).sum::<f64>() / n)
            .collect();
        self.std = (0..d)
            .map(|j| {
                let m = self.mean[j];
                let v = x.iter().map(|r| (r[j] - m) * (r[j] - m)).sum::<f64>() / n;
                let s = v.sqrt();
                if s < 1e-12 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
    }

    /// Standardize a batch.
    ///
    /// # Panics
    ///
    /// Panics if the scaler is unfitted or dimensions mismatch.
    pub fn transform(&self, x: &[Vec<f64>]) -> Vec<Vec<f64>> {
        x.iter().map(|r| self.transform_one(r)).collect()
    }

    /// Standardize one sample.
    ///
    /// # Panics
    ///
    /// Panics if the scaler is unfitted or dimensions mismatch.
    pub(crate) fn transform_one(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.mean.len(), "scaler dimension mismatch");
        x.iter()
            .enumerate()
            .map(|(j, v)| (v - self.mean[j]) / self.std[j])
            .collect()
    }

    /// Fit then transform in one step.
    pub fn fit_transform(&mut self, x: &[Vec<f64>]) -> Vec<Vec<f64>> {
        self.fit(x);
        self.transform(x)
    }
}

/// A regressor wrapped with train-time feature standardization.
///
/// `fit` learns the scaler on the training features only, then fits the
/// inner model on standardized data; `predict` applies the same transform.
/// This is how the estimation flow feeds distance/kernel models (k-NN,
/// SVR, MLP) without leaking test statistics.
#[derive(Debug, Clone)]
pub struct ScaledRegressor<M> {
    scaler: StandardScaler,
    inner: M,
}

impl<M: crate::Regressor> ScaledRegressor<M> {
    /// Wrap `inner` with a standard scaler.
    pub fn new(inner: M) -> ScaledRegressor<M> {
        ScaledRegressor {
            scaler: StandardScaler::new(),
            inner,
        }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: crate::Regressor> crate::Regressor for ScaledRegressor<M> {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        let xs = self.scaler.fit_transform(x);
        self.inner.fit(&xs, y);
    }

    fn predict_one(&self, x: &[f64]) -> f64 {
        self.inner.predict_one(&self.scaler.transform_one(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Distance, KnnRegressor, Regressor, WeightScheme};

    #[test]
    fn scaled_regressor_equalizes_feature_ranges() {
        // Feature 1 has a huge range and is pure noise; unscaled k-NN is
        // dominated by it, scaled k-NN recovers the signal in feature 0.
        let x: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 10) as f64, ((i * 37) % 100) as f64 * 1000.0])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0]).collect();
        let mut scaled = ScaledRegressor::new(KnnRegressor::new(
            3,
            Distance::Euclidean,
            WeightScheme::Uniform,
        ));
        scaled.fit(&x, &y);
        let err: f64 = x
            .iter()
            .zip(&y)
            .map(|(xi, yi)| (scaled.predict_one(xi) - yi).abs())
            .sum::<f64>()
            / x.len() as f64;
        assert!(err < 1.5, "scaled knn mean error = {err}");
    }

    #[test]
    fn standard_scaler_statistics() {
        let x = vec![vec![1.0, 10.0], vec![3.0, 10.0], vec![5.0, 10.0]];
        let mut s = StandardScaler::new();
        let t = s.fit_transform(&x);
        // Column 0: mean 3, std sqrt(8/3).
        let col0: Vec<f64> = t.iter().map(|r| r[0]).collect();
        assert!((col0.iter().sum::<f64>()).abs() < 1e-12);
        let var: f64 = col0.iter().map(|v| v * v).sum::<f64>() / 3.0;
        assert!((var - 1.0).abs() < 1e-12);
        // Constant column maps to zero.
        assert!(t.iter().all(|r| r[1] == 0.0));
    }

    #[test]
    fn scaler_is_train_only() {
        let train = vec![vec![0.0], vec![10.0]];
        let mut s = StandardScaler::new();
        s.fit(&train);
        // A test point outside the training range extrapolates linearly.
        let out = s.transform_one(&[20.0]);
        assert!(out[0] > 2.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let mut s = StandardScaler::new();
        s.fit(&[vec![1.0, 2.0]]);
        let _ = s.transform_one(&[1.0]);
    }
}
