//! The per-flip-flop feature matrix and its serialization.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A dense `num_ffs × num_features` matrix with named rows (flip-flop
/// instance names) and named columns (feature names).
///
/// Row order matches [`FfId`](ffr_netlist::FfId) order, so row `i` pairs
/// with the FDR of flip-flop `i` in an
/// `FdrTable` of the `ffr-fault` crate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureMatrix {
    ff_names: Vec<String>,
    feature_names: Vec<String>,
    /// Row-major values.
    values: Vec<f64>,
}

impl FeatureMatrix {
    /// All-zero matrix with the given row and column names.
    pub fn zeros(ff_names: Vec<String>, feature_names: Vec<String>) -> FeatureMatrix {
        let values = vec![0.0; ff_names.len() * feature_names.len()];
        FeatureMatrix {
            ff_names,
            feature_names,
            values,
        }
    }

    /// Number of rows (flip-flops).
    pub fn num_rows(&self) -> usize {
        self.ff_names.len()
    }

    /// Number of feature columns.
    pub fn num_cols(&self) -> usize {
        self.feature_names.len()
    }

    /// Row (flip-flop) names.
    pub fn ff_names(&self) -> &[String] {
        &self.ff_names
    }

    /// Column (feature) names.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Value accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.num_rows() && col < self.num_cols());
        self.values[row * self.num_cols() + col]
    }

    /// Value mutator.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.num_rows() && col < self.num_cols());
        let cols = self.num_cols();
        self.values[row * cols + col] = value;
    }

    /// One row as a slice.
    pub fn row(&self, row: usize) -> &[f64] {
        let cols = self.num_cols();
        &self.values[row * cols..(row + 1) * cols]
    }

    /// All rows as `Vec<Vec<f64>>` (the format `ffr-ml` consumes).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        (0..self.num_rows()).map(|r| self.row(r).to_vec()).collect()
    }

    /// `true` if every value is finite (no NaN/Inf) — the precondition the
    /// regression models assert on their training data.
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }

    /// The row index of a named flip-flop.
    pub fn row_index(&self, ff_name: &str) -> Option<usize> {
        self.ff_names.iter().position(|n| n == ff_name)
    }

    /// Restrict the matrix to the given columns (for feature-group
    /// ablations).
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of range.
    pub fn select_columns(&self, cols: &[usize]) -> FeatureMatrix {
        let feature_names = cols
            .iter()
            .map(|&c| self.feature_names[c].clone())
            .collect();
        let mut out = FeatureMatrix::zeros(self.ff_names.clone(), feature_names);
        for r in 0..self.num_rows() {
            for (j, &c) in cols.iter().enumerate() {
                out.set(r, j, self.get(r, c));
            }
        }
        out
    }

    /// Render as CSV with a header row and the flip-flop name as the first
    /// column.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("ff_name");
        for name in &self.feature_names {
            let _ = write!(out, ",{name}");
        }
        out.push('\n');
        for r in 0..self.num_rows() {
            out.push_str(&self.ff_names[r]);
            for c in 0..self.num_cols() {
                let _ = write!(out, ",{}", self.get(r, c));
            }
            out.push('\n');
        }
        out
    }

    /// Write the matrix as pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialization failures.
    pub fn save_json(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self).map_err(io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Load a matrix previously written by [`FeatureMatrix::save_json`].
    ///
    /// # Errors
    ///
    /// Propagates I/O and deserialization failures.
    pub fn load_json(path: &Path) -> io::Result<FeatureMatrix> {
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text).map_err(io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FeatureMatrix {
        let mut m = FeatureMatrix::zeros(
            vec!["ff0".into(), "ff1".into()],
            vec!["a".into(), "b".into(), "c".into()],
        );
        m.set(0, 0, 1.0);
        m.set(0, 2, 3.5);
        m.set(1, 1, -2.0);
        m
    }

    #[test]
    fn get_set_row() {
        let m = sample();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 2), 3.5);
        assert_eq!(m.row(1), &[0.0, -2.0, 0.0]);
        assert_eq!(m.to_rows().len(), 2);
    }

    #[test]
    fn column_selection() {
        let m = sample();
        let s = m.select_columns(&[2, 0]);
        assert_eq!(s.feature_names(), &["c".to_string(), "a".to_string()]);
        assert_eq!(s.get(0, 0), 3.5);
        assert_eq!(s.get(0, 1), 1.0);
    }

    #[test]
    fn csv_format() {
        let csv = sample().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("ff_name,a,b,c"));
        assert_eq!(lines.next(), Some("ff0,1,0,3.5"));
        assert_eq!(lines.next(), Some("ff1,0,-2,0"));
    }

    #[test]
    fn json_round_trip() {
        let m = sample();
        let dir = std::env::temp_dir().join("ffr_features_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.json");
        m.save_json(&path).unwrap();
        assert_eq!(FeatureMatrix::load_json(&path).unwrap(), m);
    }

    #[test]
    #[should_panic]
    fn out_of_range_get_panics() {
        let _ = sample().get(5, 0);
    }
}
