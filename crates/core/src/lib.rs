//! The paper's methodology: ML-assisted estimation of per-flip-flop
//! Functional De-Rating factors.
//!
//! This crate wires the substrates together into the flow of Fig. 1:
//!
//! 1. compile the gate-level netlist and capture the **golden run**
//!    ([`ffr_sim`]),
//! 2. extract the per-flip-flop **feature vectors** ([`ffr_features`]),
//! 3. obtain reference FDR values by **statistical fault injection** —
//!    either for every flip-flop (the paper's validation baseline) or only
//!    for a training subset (the cost-saving use case, [`ffr_fault`]),
//! 4. **train and evaluate regression models** ([`ffr_ml`]) under 10-fold
//!    stratified cross-validation, producing the paper's Table I metrics,
//!    the per-fold prediction plots (Figs. 2a/3a/4a) and the learning
//!    curves (Figs. 2b/3b/4b).
//!
//! Entry points:
//!
//! * [`ReferenceDataset::collect`] — full campaign + features (§IV-A),
//! * [`ModelKind`] — the paper's three models plus the future-work ones,
//!   with tuned hyperparameters and default search spaces,
//! * [`evaluate_model`] / [`compare_models`] — Table I,
//! * [`prediction_report`] — Figs. 2a/3a/4a,
//! * [`model_learning_curve`] — Figs. 2b/3b/4b,
//! * [`estimate()`] — the production pipeline behind `ffr estimate`,
//!   `ffr transfer` and in-memory use: cross-validated model selection on
//!   the measured flip-flops ([`measured_rows`]), then fit the winner and
//!   predict the rest ([`fit_predict`]),
//! * [`SoftErrorEstimate`] — fold the SEU estimates and a SET de-rating
//!   table (from `ffr run --fault set`) into one circuit-level
//!   functional failure rate,
//! * [`savings`] — the 2–5× campaign-cost-reduction analysis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod derating;
mod estimate;
mod models;
mod report;
pub mod savings;

pub use dataset::ReferenceDataset;
pub use derating::{RawEventRates, SoftErrorEstimate};
pub use estimate::{estimate, fit_predict, measured_rows, Estimate, ModelCv};
pub use models::{DecisionTreeParams, KnnParams, ModelCandidate, ModelKind, SvrParams};
pub use report::{
    compare_models, evaluate_model, model_learning_curve, prediction_report, LearningCurveReport,
    ModelComparison, PredictionReport,
};
