//! Principal Component Analysis.
//!
//! The paper's future-work section suggests "a dimension reduction should
//! be taken into account in order to avoid the curse of dimensionality";
//! this module provides exact PCA via a cyclic Jacobi eigensolver on the
//! feature covariance matrix (25×25 in the paper's setting — tiny).

use crate::linalg::Matrix;

/// A fitted PCA transform.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    /// Component vectors, one row per component, sorted by decreasing
    /// eigenvalue.
    components: Vec<Vec<f64>>,
    /// Eigenvalues (variances along the components), same order.
    explained_variance: Vec<f64>,
}

impl Pca {
    /// Fit a PCA retaining `n_components` directions.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty/ragged or `n_components` is 0 or exceeds the
    /// feature dimension.
    pub fn fit(x: &[Vec<f64>], n_components: usize) -> Pca {
        assert!(!x.is_empty(), "empty PCA input");
        let d = x[0].len();
        assert!(x.iter().all(|r| r.len() == d), "ragged PCA input");
        assert!(
            n_components >= 1 && n_components <= d,
            "n_components {n_components} out of range 1..={d}"
        );
        let n = x.len() as f64;
        let mean: Vec<f64> = (0..d)
            .map(|j| x.iter().map(|r| r[j]).sum::<f64>() / n)
            .collect();
        // Covariance matrix.
        let mut cov = Matrix::zeros(d, d);
        for r in x {
            for i in 0..d {
                let di = r[i] - mean[i];
                for j in i..d {
                    let v = cov.get(i, j) + di * (r[j] - mean[j]) / n;
                    cov.set(i, j, v);
                }
            }
        }
        for i in 0..d {
            for j in 0..i {
                let v = cov.get(j, i);
                cov.set(i, j, v);
            }
        }
        let (eigvals, eigvecs) = jacobi_eigen(&cov);
        // Sort by decreasing eigenvalue.
        let mut order: Vec<usize> = (0..d).collect();
        order.sort_by(|&a, &b| eigvals[b].total_cmp(&eigvals[a]));
        let components: Vec<Vec<f64>> = order[..n_components]
            .iter()
            .map(|&k| (0..d).map(|i| eigvecs.get(i, k)).collect())
            .collect();
        let explained_variance: Vec<f64> = order[..n_components]
            .iter()
            .map(|&k| eigvals[k].max(0.0))
            .collect();
        Pca {
            mean,
            components,
            explained_variance,
        }
    }

    /// Variance captured by each retained component (decreasing).
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// Fraction of the total variance captured by the retained components.
    ///
    /// `total_variance` is the trace of the covariance matrix; pass the
    /// value from [`Pca::total_variance`] of the same data.
    pub fn explained_variance_ratio(&self, total_variance: f64) -> f64 {
        if total_variance <= 0.0 {
            return 1.0;
        }
        self.explained_variance.iter().sum::<f64>() / total_variance
    }

    /// Total variance (covariance trace) of a dataset; companion to
    /// [`Pca::explained_variance_ratio`].
    pub fn total_variance(x: &[Vec<f64>]) -> f64 {
        let d = x[0].len();
        let n = x.len() as f64;
        (0..d)
            .map(|j| {
                let mean = x.iter().map(|r| r[j]).sum::<f64>() / n;
                x.iter().map(|r| (r[j] - mean) * (r[j] - mean)).sum::<f64>() / n
            })
            .sum()
    }

    /// Project one sample onto the retained components.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub(crate) fn transform_one(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.mean.len(), "PCA dimension mismatch");
        self.components
            .iter()
            .map(|c| {
                c.iter()
                    .zip(x)
                    .zip(&self.mean)
                    .map(|((ci, xi), mi)| ci * (xi - mi))
                    .sum()
            })
            .collect()
    }

    /// Project a batch.
    pub fn transform(&self, x: &[Vec<f64>]) -> Vec<Vec<f64>> {
        x.iter().map(|r| self.transform_one(r)).collect()
    }
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix. Returns
/// `(eigenvalues, eigenvector matrix)` with eigenvectors in columns.
fn jacobi_eigen(a: &Matrix) -> (Vec<f64>, Matrix) {
    let n = a.rows();
    let mut m = a.clone();
    let mut v = Matrix::zeros(n, n);
    for i in 0..n {
        v.set(i, i, 1.0);
    }
    for _sweep in 0..100 {
        // Largest off-diagonal magnitude.
        let mut off = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                off = off.max(m.get(i, j).abs());
            }
        }
        if off < 1e-12 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m.get(p, q);
                if apq.abs() < 1e-14 {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                let theta = 0.5 * (aqq - app) / apq;
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Rotate rows/columns p and q.
                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkq = m.get(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mqk = m.get(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    let eig: Vec<f64> = (0..n).map(|i| m.get(i, i)).collect();
    (eig, v)
}

impl Pca {
    /// The retained component vectors (unit length, decreasing variance).
    pub fn components(&self) -> &[Vec<f64>] {
        &self.components
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_dominant_direction() {
        // Points along the (1, 1) diagonal with small orthogonal noise.
        let x: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let t = i as f64 * 0.1;
                let noise = if i % 2 == 0 { 0.01 } else { -0.01 };
                vec![t + noise, t - noise]
            })
            .collect();
        let pca = Pca::fit(&x, 1);
        let c = &pca.components()[0];
        let ratio = (c[0] / c[1]).abs();
        assert!((ratio - 1.0).abs() < 0.01, "component {c:?}");
        // Nearly all variance explained by one component.
        let total = Pca::total_variance(&x);
        assert!(pca.explained_variance_ratio(total) > 0.999);
    }

    #[test]
    fn projection_is_centered() {
        let x: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64, (i * 3 % 7) as f64, 5.0])
            .collect();
        let pca = Pca::fit(&x, 2);
        let t = pca.transform(&x);
        for j in 0..2 {
            let mean: f64 = t.iter().map(|r| r[j]).sum::<f64>() / t.len() as f64;
            assert!(mean.abs() < 1e-9, "component {j} mean {mean}");
        }
        // The constant column contributes nothing.
        assert_eq!(t[0].len(), 2);
    }

    #[test]
    fn components_are_orthonormal() {
        let x: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                vec![
                    (i % 9) as f64,
                    (i % 5) as f64 * 2.0,
                    (i % 3) as f64 - (i % 7) as f64,
                ]
            })
            .collect();
        let pca = Pca::fit(&x, 3);
        for i in 0..3 {
            for j in 0..3 {
                let dot: f64 = pca.components()[i]
                    .iter()
                    .zip(&pca.components()[j])
                    .map(|(a, b)| a * b)
                    .sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-8, "<c{i}, c{j}> = {dot}");
            }
        }
        // Eigenvalues are sorted decreasing.
        let ev = pca.explained_variance();
        assert!(ev.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn too_many_components_panics() {
        let x = vec![vec![1.0, 2.0]];
        let _ = Pca::fit(&x, 3);
    }
}
