//! The paper's methodology: ML-assisted estimation of per-flip-flop
//! Functional De-Rating factors.
//!
//! This crate wires the substrates together into the flow of Fig. 1:
//!
//! 1. compile the gate-level netlist and capture the **golden run**
//!    (`ffr_sim`),
//! 2. extract the per-flip-flop **feature vectors** ([`ffr_features`]),
//! 3. obtain reference FDR values by **statistical fault injection** —
//!    either for every flip-flop (the paper's validation baseline) or only
//!    for a training subset (the cost-saving use case) — [`ffr_fault`]
//!    runs one injection point, the `ffr_campaign` runner loops over them,
//! 4. **select, fit and apply a regression model** ([`ffr_ml`]) on the
//!    measured flip-flops, predicting the rest.
//!
//! Entry points:
//!
//! * [`ReferenceDataset`] — golden-run features + a flat campaign's FDRs
//!   (§IV-A),
//! * [`ModelKind`] — the paper's three models plus the future-work ones,
//!   with tuned hyperparameters and small selection grids
//!   ([`ModelKind::small_grid`]),
//! * [`estimate()`] — the one select → fit → predict pipeline, behind
//!   `ffr estimate`, `ffr transfer`, in-memory use and the paper's tables
//!   (`paper_tables` in `ffr-bench`): cross-validated model selection on
//!   the measured flip-flops ([`measured_rows`]) over the caller's folds,
//!   then fit the winner and predict the rest ([`fit_predict`]),
//! * [`SoftErrorEstimate`] — fold the SEU estimates and a SET de-rating
//!   table (from `ffr run --fault set`) into one circuit-level
//!   functional failure rate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod dataset;
mod derating;
mod estimate;
mod models;

pub use dataset::ReferenceDataset;
pub use derating::{RawEventRates, SoftErrorEstimate};
pub use estimate::{estimate, fit_predict, measured_rows, Estimate, ModelCv};
pub use models::{ModelCandidate, ModelKind};
