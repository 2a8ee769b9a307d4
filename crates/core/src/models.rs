//! The model zoo: the paper's three evaluated models and its future-work
//! models, with tuned hyperparameters and the small selection grids
//! around them.

use ffr_ml::{
    Activation, Distance, GradientBoostingRegressor, Kernel, KnnRegressor, LinearRegression,
    MlpRegressor, RandomForestRegressor, Regressor, RidgeRegression, ScaledRegressor, SvrRegressor,
    WeightScheme,
};
use serde::{Deserialize, Serialize};

/// Every regression model the workspace can evaluate.
///
/// The first three are the paper's §IV models with the hyperparameters the
/// paper reports from its random + grid search (k-NN: `k = 3`, Manhattan,
/// inverse-distance; SVR: `C = 3.5`, `γ = 0.055`, `ε = 0.025`); the rest
/// are the future-work models of §V.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Ordinary linear least squares (§IV-B.1).
    LinearLeastSquares,
    /// k-nearest neighbors with the paper's tuned hyperparameters
    /// (§IV-B.2).
    Knn,
    /// ε-SVR with RBF kernel and the paper's tuned hyperparameters
    /// (§IV-B.3).
    SvrRbf,
    /// Ridge regression (regularized linear baseline).
    Ridge,
    /// CART decision tree (future work).
    DecisionTree,
    /// Random forest (future work).
    RandomForest,
    /// Gradient boosting (future work: "boosting algorithms").
    GradientBoosting,
    /// Multi-layer perceptron (future work).
    Mlp,
}

impl ModelKind {
    /// The three models of the paper's Table I, in table order.
    pub const PAPER: [ModelKind; 3] = [
        ModelKind::LinearLeastSquares,
        ModelKind::Knn,
        ModelKind::SvrRbf,
    ];

    /// Every model, paper models first.
    pub const ALL: [ModelKind; 8] = [
        ModelKind::LinearLeastSquares,
        ModelKind::Knn,
        ModelKind::SvrRbf,
        ModelKind::Ridge,
        ModelKind::DecisionTree,
        ModelKind::RandomForest,
        ModelKind::GradientBoosting,
        ModelKind::Mlp,
    ];

    /// Human-readable name matching the paper's table rows.
    pub fn display_name(self) -> &'static str {
        match self {
            ModelKind::LinearLeastSquares => "Linear Least Squares",
            ModelKind::Knn => "k-NN",
            ModelKind::SvrRbf => "SVR w/ RBF Kernel",
            ModelKind::Ridge => "Ridge Regression",
            ModelKind::DecisionTree => "Decision Tree",
            ModelKind::RandomForest => "Random Forest",
            ModelKind::GradientBoosting => "Gradient Boosting",
            ModelKind::Mlp => "MLP",
        }
    }

    /// Instantiate the model with its tuned default hyperparameters.
    ///
    /// Distance/kernel/gradient models are wrapped in a standard scaler,
    /// mirroring the scikit-learn pipelines the paper used.
    pub fn build(self) -> Box<dyn Regressor + Send + Sync> {
        match self {
            ModelKind::LinearLeastSquares => Box::new(LinearRegression::new()),
            ModelKind::Knn => Box::new(ScaledRegressor::new(KnnRegressor::paper_tuned())),
            ModelKind::SvrRbf => Box::new(ScaledRegressor::new(SvrRegressor::paper_tuned())),
            ModelKind::Ridge => Box::new(RidgeRegression::new(1.0)),
            ModelKind::DecisionTree => Box::new(DecisionTreeParams::default().build()),
            ModelKind::RandomForest => {
                Box::new(RandomForestRegressor::new(60, 12, 0).with_min_samples_leaf(2))
            }
            ModelKind::GradientBoosting => Box::new(GradientBoostingRegressor::new(150, 0.1, 3)),
            ModelKind::Mlp => Box::new(ScaledRegressor::new(
                MlpRegressor::new(vec![32, 16], Activation::Relu, 300, 0).with_learning_rate(0.01),
            )),
        }
    }

    /// Short CLI token of the model (`ffr estimate --models …`).
    pub fn cli_name(self) -> &'static str {
        match self {
            ModelKind::LinearLeastSquares => "linear",
            ModelKind::Knn => "knn",
            ModelKind::SvrRbf => "svr",
            ModelKind::Ridge => "ridge",
            ModelKind::DecisionTree => "tree",
            ModelKind::RandomForest => "forest",
            ModelKind::GradientBoosting => "boosting",
            ModelKind::Mlp => "mlp",
        }
    }

    /// Parse a CLI token produced by [`ModelKind::cli_name`].
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid tokens on an unknown name.
    pub fn parse_cli(name: &str) -> Result<ModelKind, String> {
        ModelKind::ALL
            .into_iter()
            .find(|k| k.cli_name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = ModelKind::ALL.iter().map(|k| k.cli_name()).collect();
                format!(
                    "unknown model `{name}` (expected one of: {})",
                    names.join(", ")
                )
            })
    }

    /// A small hyperparameter grid around the tuned defaults, capped at
    /// `budget` candidates — the paper runs an expensive random + grid
    /// search once per circuit (§III-A); the campaign CLI instead spends a
    /// fixed, small search budget per model so `ffr estimate` stays
    /// interactive. The tuned default is always the first candidate, and
    /// every candidate constructs with fixed seeds, so grid results are
    /// bit-identical across reruns.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn small_grid(self, budget: usize) -> Vec<ModelCandidate> {
        assert!(budget > 0, "grid budget must be positive");
        let mut grid = vec![ModelCandidate::new(self, "tuned-default", move || {
            self.build()
        })];
        match self {
            ModelKind::LinearLeastSquares => {}
            ModelKind::Knn => {
                for k in [5usize, 7] {
                    grid.push(ModelCandidate::new(self, format!("k={k}"), move || {
                        Box::new(ScaledRegressor::new(KnnRegressor::new(
                            k,
                            Distance::Manhattan,
                            WeightScheme::InverseDistance,
                        )))
                    }));
                }
            }
            ModelKind::SvrRbf => {
                for (c, gamma) in [(1.0, 0.055), (3.5, 0.2)] {
                    grid.push(ModelCandidate::new(
                        self,
                        format!("C={c} gamma={gamma}"),
                        move || {
                            Box::new(ScaledRegressor::new(SvrRegressor::new(
                                c,
                                0.025,
                                Kernel::Rbf { gamma },
                            )))
                        },
                    ));
                }
            }
            ModelKind::Ridge => {
                for alpha in [0.1, 10.0] {
                    grid.push(ModelCandidate::new(
                        self,
                        format!("alpha={alpha}"),
                        move || Box::new(RidgeRegression::new(alpha)),
                    ));
                }
            }
            ModelKind::DecisionTree => {
                for depth in [6usize, 18] {
                    grid.push(ModelCandidate::new(
                        self,
                        format!("max_depth={depth}"),
                        move || {
                            Box::new(
                                DecisionTreeParams {
                                    max_depth: depth,
                                    min_samples_leaf: 2,
                                }
                                .build(),
                            )
                        },
                    ));
                }
            }
            ModelKind::RandomForest => {
                for (trees, depth) in [(30usize, 8usize), (100, 12)] {
                    grid.push(ModelCandidate::new(
                        self,
                        format!("trees={trees} depth={depth}"),
                        move || {
                            Box::new(
                                RandomForestRegressor::new(trees, depth, 0)
                                    .with_min_samples_leaf(2),
                            )
                        },
                    ));
                }
            }
            ModelKind::GradientBoosting => {
                for (stages, lr, depth) in [(100usize, 0.1, 2usize), (200, 0.05, 3)] {
                    grid.push(ModelCandidate::new(
                        self,
                        format!("stages={stages} lr={lr} depth={depth}"),
                        move || Box::new(GradientBoostingRegressor::new(stages, lr, depth)),
                    ));
                }
            }
            ModelKind::Mlp => {
                for hidden in [vec![16usize], vec![64, 32]] {
                    grid.push(ModelCandidate::new(
                        self,
                        format!("hidden={hidden:?}"),
                        move || {
                            Box::new(ScaledRegressor::new(
                                MlpRegressor::new(hidden.clone(), Activation::Relu, 300, 0)
                                    .with_learning_rate(0.01),
                            ))
                        },
                    ));
                }
            }
        }
        grid.truncate(budget);
        grid
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.display_name())
    }
}

/// One candidate of a [`ModelKind::small_grid`]: a labelled constructor
/// for a model with specific hyperparameters, usable as the parameter type
/// of [`ffr_ml::model_selection::grid_search`].
#[derive(Clone)]
pub struct ModelCandidate {
    kind: ModelKind,
    label: String,
    build: std::sync::Arc<dyn Fn() -> Box<dyn Regressor + Send + Sync> + Send + Sync>,
}

impl ModelCandidate {
    fn new(
        kind: ModelKind,
        label: impl Into<String>,
        build: impl Fn() -> Box<dyn Regressor + Send + Sync> + Send + Sync + 'static,
    ) -> ModelCandidate {
        ModelCandidate {
            kind,
            label: label.into(),
            build: std::sync::Arc::new(build),
        }
    }

    /// The model kind this candidate belongs to.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Human-readable hyperparameter description.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Instantiate a fresh, unfitted model.
    pub fn build(&self) -> Box<dyn Regressor + Send + Sync> {
        (self.build)()
    }
}

impl std::fmt::Debug for ModelCandidate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ModelCandidate({} / {})", self.kind, self.label)
    }
}

/// Decision-tree hyperparameters.
#[derive(Clone, Copy)]
struct DecisionTreeParams {
    max_depth: usize,
    min_samples_leaf: usize,
}

impl Default for DecisionTreeParams {
    fn default() -> Self {
        DecisionTreeParams {
            max_depth: 12,
            min_samples_leaf: 2,
        }
    }
}

impl DecisionTreeParams {
    fn build(self) -> ffr_ml::DecisionTreeRegressor {
        ffr_ml::DecisionTreeRegressor::new(self.max_depth, 2, self.min_samples_leaf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_model_builds_and_fits() {
        let x: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 8) as f64, (i % 3) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| (r[0] * 0.1 + r[1]).min(1.0)).collect();
        for kind in ModelKind::ALL {
            let mut m = kind.build();
            m.fit(&x, &y);
            let p = m.predict_one(&x[0]);
            assert!(p.is_finite(), "{kind}: non-finite prediction");
        }
    }

    #[test]
    fn cli_names_round_trip() {
        for kind in ModelKind::ALL {
            assert_eq!(ModelKind::parse_cli(kind.cli_name()), Ok(kind));
        }
        assert!(ModelKind::parse_cli("perceptron").is_err());
    }

    #[test]
    fn small_grids_build_and_respect_budget() {
        let x: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i % 6) as f64, (i % 4) as f64])
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| (r[0] * 0.1 + r[1] * 0.2).min(1.0))
            .collect();
        for kind in ModelKind::ALL {
            let grid = kind.small_grid(3);
            assert!(!grid.is_empty() && grid.len() <= 3, "{kind}");
            assert_eq!(grid[0].label(), "tuned-default");
            for candidate in &grid {
                assert_eq!(candidate.kind(), kind);
                let mut model = candidate.build();
                model.fit(&x, &y);
                assert!(model.predict_one(&x[0]).is_finite(), "{candidate:?}");
            }
            // A budget of one keeps only the tuned default.
            assert_eq!(kind.small_grid(1).len(), 1);
        }
    }

    #[test]
    fn display_names_match_table_one() {
        assert_eq!(
            ModelKind::LinearLeastSquares.to_string(),
            "Linear Least Squares"
        );
        assert_eq!(ModelKind::Knn.to_string(), "k-NN");
        assert_eq!(ModelKind::SvrRbf.to_string(), "SVR w/ RBF Kernel");
    }
}
