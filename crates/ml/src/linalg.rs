//! Minimal dense linear algebra: just enough for least squares and ridge
//! regression, with no external dependencies.

// Index-based loops mirror the textbook formulations of these kernels.
#![allow(clippy::needless_range_loop)]
use std::fmt;

/// A dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub(crate) struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", &self.row(r)[..self.cols.min(8)])?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// All-zero matrix.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub(crate) fn from_rows(rows: &[Vec<f64>]) -> Matrix {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut m = Matrix::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "ragged rows");
            m.data[i * c..(i + 1) * c].copy_from_slice(row);
        }
        m
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub(crate) fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub(crate) fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Row as a slice.
    pub(crate) fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `Aᵀ A` (symmetric, cols × cols).
    pub(crate) fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..n {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                for j in i..n {
                    let v = g.get(i, j) + ri * row[j];
                    g.set(i, j, v);
                }
            }
        }
        for i in 0..n {
            for j in 0..i {
                let v = g.get(j, i);
                g.set(i, j, v);
            }
        }
        g
    }

    /// `Aᵀ y`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != rows`.
    pub(crate) fn t_matvec(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows);
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let row = self.row(r);
            let yr = y[r];
            for (o, a) in out.iter_mut().zip(row) {
                *o += a * yr;
            }
        }
        out
    }

    /// Solve the least-squares problem `min ‖Ax − b‖₂` via Householder QR
    /// with a tiny ridge fallback when the system is rank-deficient.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != rows` or the matrix has more columns than
    /// rows (the normal-equation path still handles it after fallback).
    pub(crate) fn solve_least_squares(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.rows);
        if self.rows >= self.cols {
            if let Some(x) = qr_solve(self, b) {
                return x;
            }
        }
        // Rank-deficient or under-determined: regularized normal equations.
        let mut g = self.gram();
        let scale = (0..g.cols()).map(|i| g.get(i, i)).fold(0.0, f64::max);
        let lambda = (scale * 1e-10).max(1e-12);
        for i in 0..g.cols() {
            let v = g.get(i, i) + lambda;
            g.set(i, i, v);
        }
        let rhs = self.t_matvec(b);
        cholesky_solve(&g, &rhs).expect("regularized gram matrix is SPD")
    }
}

/// Householder QR solve; returns `None` when R has a (near-)zero diagonal.
fn qr_solve(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    let m = a.rows();
    let n = a.cols();
    let mut r = a.clone();
    let mut qtb = b.to_vec();

    for k in 0..n {
        // Householder vector for column k.
        let mut norm = 0.0;
        for i in k..m {
            norm += r.get(i, k) * r.get(i, k);
        }
        let norm = norm.sqrt();
        if norm == 0.0 {
            return None;
        }
        let alpha = if r.get(k, k) > 0.0 { -norm } else { norm };
        let mut v = vec![0.0; m - k];
        v[0] = r.get(k, k) - alpha;
        for i in (k + 1)..m {
            v[i - k] = r.get(i, k);
        }
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        if vnorm2 == 0.0 {
            // Column already triangular; nothing to reflect.
            r.set(k, k, alpha);
            continue;
        }
        // Apply H = I - 2 v vᵀ / (vᵀv) to R[k.., k..] and qtb[k..].
        for j in k..n {
            let mut dot = 0.0;
            for i in k..m {
                dot += v[i - k] * r.get(i, j);
            }
            let f = 2.0 * dot / vnorm2;
            for i in k..m {
                let val = r.get(i, j) - f * v[i - k];
                r.set(i, j, val);
            }
        }
        let mut dot = 0.0;
        for i in k..m {
            dot += v[i - k] * qtb[i];
        }
        let f = 2.0 * dot / vnorm2;
        for i in k..m {
            qtb[i] -= f * v[i - k];
        }
    }

    // Back substitution on the upper-triangular R.
    let mut x = vec![0.0; n];
    for k in (0..n).rev() {
        let diag = r.get(k, k);
        if diag.abs() < 1e-10 {
            return None;
        }
        let mut s = qtb[k];
        for j in (k + 1)..n {
            s -= r.get(k, j) * x[j];
        }
        x[k] = s / diag;
    }
    Some(x)
}

/// Solve `G x = b` for symmetric positive-definite `G` via Cholesky.
pub(crate) fn cholesky_solve(g: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    let n = g.rows();
    assert_eq!(g.cols(), n);
    assert_eq!(b.len(), n);
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = g.get(i, j);
            for k in 0..j {
                s -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if s <= 0.0 {
                    return None;
                }
                l.set(i, j, s.sqrt());
            } else {
                l.set(i, j, s / l.get(j, j));
            }
        }
    }
    // Forward substitution: L z = b.
    let mut z = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l.get(i, k) * z[k];
        }
        z[i] = s / l.get(i, i);
    }
    // Back substitution: Lᵀ x = z.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = z[i];
        for k in (i + 1)..n {
            s -= l.get(k, i) * x[k];
        }
        x[i] = s / l.get(i, i);
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_and_gram() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let g = a.gram();
        assert_eq!(g.get(0, 0), 35.0);
        assert_eq!(g.get(0, 1), 44.0);
        assert_eq!(g.get(1, 0), 44.0);
        assert_eq!(g.get(1, 1), 56.0);
        assert_eq!(a.t_matvec(&[1.0, 0.0, 1.0]), vec![6.0, 8.0]);
    }

    #[test]
    fn exact_solve_square() {
        // x + y = 3; x - y = 1 -> x = 2, y = 1.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, -1.0]]);
        let x = a.solve_least_squares(&[3.0, 1.0]);
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overdetermined_recovers_plane() {
        // y = 2a - 3b + noise-free samples.
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                let a = (i as f64) * 0.37;
                let b = ((i * 7 % 11) as f64) * 0.11;
                vec![a, b]
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] - 3.0 * r[1]).collect();
        let a = Matrix::from_rows(&rows);
        let x = a.solve_least_squares(&y);
        assert!((x[0] - 2.0).abs() < 1e-8, "{x:?}");
        assert!((x[1] + 3.0).abs() < 1e-8, "{x:?}");
    }

    #[test]
    fn rank_deficient_falls_back_gracefully() {
        // Second column is a copy of the first: infinitely many solutions;
        // the regularized fallback must return a finite one.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| 4.0 * i as f64).collect();
        let a = Matrix::from_rows(&rows);
        let x = a.solve_least_squares(&y);
        assert!(x.iter().all(|v| v.is_finite()));
        // Predictions still fit.
        for (r, t) in rows.iter().zip(&y) {
            let p = r[0] * x[0] + r[1] * x[1];
            assert!((p - t).abs() < 1e-3, "pred {p} true {t}");
        }
    }

    #[test]
    fn cholesky_known_system() {
        let g = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let x = cholesky_solve(&g, &[8.0, 7.0]).unwrap();
        // 4x + 2y = 8; 2x + 3y = 7 -> x = 1.25, y = 1.5.
        assert!((x[0] - 1.25).abs() < 1e-12);
        assert!((x[1] - 1.5).abs() < 1e-12);
        // Non-SPD input is rejected.
        let bad = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert!(cholesky_solve(&bad, &[1.0, 1.0]).is_none());
    }
}
