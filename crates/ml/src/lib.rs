//! A from-scratch supervised-regression library.
//!
//! This crate replaces the paper's use of Python's scikit-learn: it
//! implements every model the paper evaluates — **Linear Least Squares**,
//! **k-Nearest Neighbors** (inverse-distance weighting, Manhattan /
//! Euclidean / Minkowski metrics) and **ε-Support-Vector Regression** with
//! an RBF kernel (solved by an SMO/LIBSVM-style working-set algorithm) —
//! plus the models the paper lists as future work: **decision trees**,
//! **random forests**, **gradient boosting** and a **multi-layer
//! perceptron**.
//!
//! Around the models it provides the full evaluation protocol of §III-C:
//! the MAE / MAX / RMSE / Explained-Variance / R² metrics, k-fold and
//! stratified k-fold cross-validation, train/test splits, learning curves,
//! and random + grid hyperparameter search.
//!
//! Everything is deterministic given a seed; no external linear-algebra or
//! ML dependencies are used.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod boosting;
mod estimator;
mod forest;
pub mod importance;
mod knn;
mod linalg;
mod linear;
pub mod metrics;
mod mlp;
pub mod model_selection;
mod pca;
mod preprocess;
mod svm;
mod tree;

pub use boosting::GradientBoostingRegressor;
pub use estimator::{fit_predict, Regressor};
pub use forest::RandomForestRegressor;
pub use knn::{Distance, KnnRegressor, WeightScheme};
pub use linear::{LinearRegression, RidgeRegression};
pub use metrics::RegressionScores;
pub use mlp::{Activation, MlpRegressor};
pub use pca::Pca;
pub use preprocess::{ScaledRegressor, StandardScaler};
pub use svm::{Kernel, SvrRegressor};
pub use tree::DecisionTreeRegressor;
