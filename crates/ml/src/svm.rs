//! ε-Support-Vector Regression with an SMO solver (§IV-B.3 of the paper).
//!
//! The dual problem is solved in the LIBSVM formulation: the `2n`
//! variables `[α; α*]` carry signs `s = [+1; −1]`, the quadratic term is
//! `Q_ab = s_a s_b K(x_a, x_b)` and the linear term is `p = [ε − y; ε + y]`.
//! Pairs are selected by the maximal-violating-pair rule and updated
//! analytically until the KKT gap falls below `KKT_TOL`.
//!
//! The paper's tuned model (`C = 3.5`, RBF `γ = 0.055`, `ε = 0.025`) is
//! available as [`SvrRegressor::paper_tuned`].

// Index-based loops mirror the textbook formulations of these kernels.
#![allow(clippy::needless_range_loop)]
use crate::estimator::{check_training_set, Regressor};

/// Kernel functions for [`SvrRegressor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// Dot product (linear SVR).
    Linear,
    /// Radial basis function `exp(-γ‖a−b‖²)` (the paper's choice).
    Rbf {
        /// Width parameter γ.
        gamma: f64,
    },
    /// Polynomial `(γ·aᵀb + coef0)^degree`.
    Poly {
        /// Scale γ.
        gamma: f64,
        /// Degree.
        degree: u32,
        /// Additive constant.
        coef0: f64,
    },
}

impl Kernel {
    /// Evaluate the kernel.
    pub fn eval(self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            Kernel::Linear => dot(a, b),
            Kernel::Rbf { gamma } => {
                let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
                (-gamma * d2).exp()
            }
            Kernel::Poly {
                gamma,
                degree,
                coef0,
            } => (gamma * dot(a, b) + coef0).powi(degree as i32),
        }
    }
}

/// SMO stops once the maximal violating pair's KKT gap is below this.
const KKT_TOL: f64 = 1e-3;

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// ε-SVR trained by Sequential Minimal Optimisation.
#[derive(Debug, Clone)]
pub struct SvrRegressor {
    c: f64,
    epsilon: f64,
    kernel: Kernel,
    max_iter: usize,
    support_x: Vec<Vec<f64>>,
    support_beta: Vec<f64>,
    bias: f64,
    iterations: usize,
}

impl SvrRegressor {
    /// New SVR with penalty `c`, tube width `epsilon` and the given
    /// kernel.
    ///
    /// # Panics
    ///
    /// Panics if `c <= 0` or `epsilon < 0`.
    pub fn new(c: f64, epsilon: f64, kernel: Kernel) -> SvrRegressor {
        assert!(c > 0.0, "C must be positive");
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        SvrRegressor {
            c,
            epsilon,
            kernel,
            max_iter: 200_000,
            support_x: Vec::new(),
            support_beta: Vec::new(),
            bias: 0.0,
            iterations: 0,
        }
    }

    /// The paper's tuned configuration: `C = 3.5`, RBF `γ = 0.055`,
    /// `ε = 0.025`.
    pub fn paper_tuned() -> SvrRegressor {
        SvrRegressor::new(3.5, 0.025, Kernel::Rbf { gamma: 0.055 })
    }

    /// Override the iteration budget (default 200 000).
    pub fn with_max_iter(mut self, max_iter: usize) -> SvrRegressor {
        self.max_iter = max_iter;
        self
    }

    /// SMO iterations the last fit used.
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

impl Regressor for SvrRegressor {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        check_training_set(x, y);
        let n = x.len();
        let m = 2 * n;

        // Kernel matrix cache.
        let mut kmat = vec![0.0f64; n * n];
        for i in 0..n {
            for j in i..n {
                let v = self.kernel.eval(&x[i], &x[j]);
                kmat[i * n + j] = v;
                kmat[j * n + i] = v;
            }
        }
        let q = |a: usize, b: usize| -> f64 {
            let sa = if a < n { 1.0 } else { -1.0 };
            let sb = if b < n { 1.0 } else { -1.0 };
            sa * sb * kmat[(a % n) * n + (b % n)]
        };
        let sign = |a: usize| -> f64 {
            if a < n {
                1.0
            } else {
                -1.0
            }
        };

        let mut alpha = vec![0.0f64; m];
        // Gradient of the dual objective; at alpha = 0 it equals p.
        let mut grad: Vec<f64> = (0..m)
            .map(|a| {
                if a < n {
                    self.epsilon - y[a]
                } else {
                    self.epsilon + y[a - n]
                }
            })
            .collect();

        let c = self.c;
        let mut iter = 0usize;
        while iter < self.max_iter {
            iter += 1;
            // Maximal violating pair over -s_a * grad_a.
            let mut i_best: Option<usize> = None;
            let mut i_val = f64::NEG_INFINITY;
            let mut j_best: Option<usize> = None;
            let mut j_val = f64::INFINITY;
            for a in 0..m {
                let s = sign(a);
                let v = -s * grad[a];
                let in_up = (s > 0.0 && alpha[a] < c) || (s < 0.0 && alpha[a] > 0.0);
                let in_low = (s > 0.0 && alpha[a] > 0.0) || (s < 0.0 && alpha[a] < c);
                if in_up && v > i_val {
                    i_val = v;
                    i_best = Some(a);
                }
                if in_low && v < j_val {
                    j_val = v;
                    j_best = Some(a);
                }
            }
            let (Some(i), Some(j)) = (i_best, j_best) else {
                break;
            };
            if i_val - j_val < KKT_TOL {
                break;
            }

            let si = sign(i);
            let sj = sign(j);
            let qii = q(i, i);
            let qjj = q(j, j);
            let qij = q(i, j);
            let old_ai = alpha[i];
            let old_aj = alpha[j];

            if si != sj {
                let quad = (qii + qjj + 2.0 * qij).max(1e-12);
                let delta = (-grad[i] - grad[j]) / quad;
                let diff = alpha[i] - alpha[j];
                alpha[i] += delta;
                alpha[j] += delta;
                if diff > 0.0 && alpha[j] < 0.0 {
                    alpha[j] = 0.0;
                    alpha[i] = diff;
                } else if diff <= 0.0 && alpha[i] < 0.0 {
                    alpha[i] = 0.0;
                    alpha[j] = -diff;
                }
                if diff > 0.0 && alpha[i] > c {
                    alpha[i] = c;
                    alpha[j] = c - diff;
                } else if diff <= 0.0 && alpha[j] > c {
                    alpha[j] = c;
                    alpha[i] = c + diff;
                }
            } else {
                let quad = (qii + qjj - 2.0 * qij).max(1e-12);
                let delta = (grad[i] - grad[j]) / quad;
                let sum = alpha[i] + alpha[j];
                alpha[i] -= delta;
                alpha[j] += delta;
                if sum > c && alpha[i] > c {
                    alpha[i] = c;
                    alpha[j] = sum - c;
                } else if sum <= c && alpha[j] < 0.0 {
                    alpha[j] = 0.0;
                    alpha[i] = sum;
                }
                if sum > c && alpha[j] > c {
                    alpha[j] = c;
                    alpha[i] = sum - c;
                } else if sum <= c && alpha[i] < 0.0 {
                    alpha[i] = 0.0;
                    alpha[j] = sum;
                }
            }

            let di = alpha[i] - old_ai;
            let dj = alpha[j] - old_aj;
            if di == 0.0 && dj == 0.0 {
                break; // numerically stuck; the gap is already tiny
            }
            for b in 0..m {
                grad[b] += q(b, i) * di + q(b, j) * dj;
            }
        }
        self.iterations = iter;

        // Bias from free variables (fallback: violating-pair midpoint).
        let mut rho_sum = 0.0;
        let mut rho_n = 0usize;
        for a in 0..m {
            if alpha[a] > 1e-9 && alpha[a] < c - 1e-9 {
                rho_sum += sign(a) * grad[a];
                rho_n += 1;
            }
        }
        let rho = if rho_n > 0 {
            rho_sum / rho_n as f64
        } else {
            let mut up = f64::NEG_INFINITY;
            let mut low = f64::INFINITY;
            for a in 0..m {
                let s = sign(a);
                let v = -s * grad[a];
                let in_up = (s > 0.0 && alpha[a] < c) || (s < 0.0 && alpha[a] > 0.0);
                let in_low = (s > 0.0 && alpha[a] > 0.0) || (s < 0.0 && alpha[a] < c);
                if in_up {
                    up = up.max(v);
                }
                if in_low {
                    low = low.min(v);
                }
            }
            -(up + low) / 2.0
        };
        self.bias = -rho;

        // Collapse to support vectors: beta_i = alpha_i - alpha*_i.
        self.support_x.clear();
        self.support_beta.clear();
        for i in 0..n {
            let beta = alpha[i] - alpha[i + n];
            if beta.abs() > 1e-9 {
                self.support_x.push(x[i].clone());
                self.support_beta.push(beta);
            }
        }
    }

    fn predict_one(&self, x: &[f64]) -> f64 {
        assert!(
            !self.support_x.is_empty() || self.bias != 0.0 || self.iterations > 0,
            "predict before fit"
        );
        let mut f = self.bias;
        for (sv, beta) in self.support_x.iter().zip(&self.support_beta) {
            f += beta * self.kernel.eval(sv, x);
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2;
    use crate::LinearRegression;

    #[test]
    fn linear_kernel_fits_linear_data() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 * 0.1]).collect();
        let y: Vec<f64> = x.iter().map(|r| 0.8 * r[0] + 0.3).collect();
        let mut m = SvrRegressor::new(10.0, 0.01, Kernel::Linear);
        m.fit(&x, &y);
        let pred = m.predict(&x);
        assert!(r2(&y, &pred) > 0.99, "r2 = {}", r2(&y, &pred));
        // Predictions stay within roughly the epsilon tube.
        for (p, t) in pred.iter().zip(&y) {
            assert!((p - t).abs() < 0.05, "{p} vs {t}");
        }
    }

    #[test]
    fn rbf_fits_nonlinear_target_where_linear_fails() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 * 0.1]).collect();
        let y: Vec<f64> = x.iter().map(|r| (r[0]).sin()).collect();
        let mut svr = SvrRegressor::new(10.0, 0.01, Kernel::Rbf { gamma: 1.0 });
        svr.fit(&x, &y);
        let svr_r2 = r2(&y, &svr.predict(&x));
        let mut lin = LinearRegression::new();
        lin.fit(&x, &y);
        let lin_r2 = r2(&y, &lin.predict(&x));
        assert!(svr_r2 > 0.98, "svr r2 = {svr_r2}");
        assert!(svr_r2 > lin_r2 + 0.2, "svr {svr_r2} vs linear {lin_r2}");
    }

    #[test]
    fn wide_tube_produces_sparse_model() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 * 0.05]).collect();
        let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0]).collect();
        let mut tight = SvrRegressor::new(5.0, 0.001, Kernel::Linear);
        tight.fit(&x, &y);
        let mut wide = SvrRegressor::new(5.0, 0.5, Kernel::Linear);
        wide.fit(&x, &y);
        let (wide_svs, tight_svs) = (wide.support_x.len(), tight.support_x.len());
        assert!(
            wide_svs <= tight_svs,
            "wider tube cannot need more SVs ({wide_svs} vs {tight_svs})"
        );
        assert!(wide_svs < 50, "tube excludes points");
    }

    #[test]
    fn poly_kernel_fits_quadratic() {
        let x: Vec<Vec<f64>> = (-10..=10).map(|i| vec![i as f64 * 0.1]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * r[0]).collect();
        let mut m = SvrRegressor::new(
            50.0,
            0.005,
            Kernel::Poly {
                gamma: 1.0,
                degree: 2,
                coef0: 1.0,
            },
        );
        m.fit(&x, &y);
        assert!(r2(&y, &m.predict(&x)) > 0.98);
    }

    #[test]
    fn kkt_tube_condition_holds() {
        // Non-support points must lie inside the epsilon tube (up to KKT_TOL).
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 0.2]).collect();
        let y: Vec<f64> = x.iter().map(|r| 0.5 * r[0] + 1.0).collect();
        let eps = 0.1;
        let mut m = SvrRegressor::new(10.0, eps, Kernel::Linear);
        m.fit(&x, &y);
        let sv_set: std::collections::HashSet<u64> = m
            .support_x
            .iter()
            .map(|sv| (sv[0] * 1000.0).round() as u64)
            .collect();
        for (xi, yi) in x.iter().zip(&y) {
            if !sv_set.contains(&((xi[0] * 1000.0).round() as u64)) {
                let f = m.predict_one(xi);
                assert!(
                    (f - yi).abs() <= eps + 1e-2,
                    "non-SV outside tube: |{f} - {yi}| > {eps}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "C must be positive")]
    fn invalid_c_panics() {
        let _ = SvrRegressor::new(0.0, 0.1, Kernel::Linear);
    }
}
