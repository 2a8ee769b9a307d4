//! Per-flip-flop feature extraction (§III-B of the paper).
//!
//! For every flip-flop this crate computes the 25-dimensional feature
//! vector the ML models are trained on, combining:
//!
//! * **structural features** from a graph analysis of the gate-level
//!   netlist — flip-flop fan-in/fan-out, transitive flip-flop reachability,
//!   primary-I/O connectivity and stage proximity (min/avg/max), bus
//!   membership/position/length, constant drivers, feedback loops,
//! * **synthesis features** — drive strength, combinational fan-in/fan-out
//!   cone sizes, combinational path depth,
//! * **dynamic features** from the golden simulation — `@0`, `@1` duty
//!   ratios and the output transition count.
//!
//! Entry point: [`extract_features`]. The result is a [`FeatureMatrix`]
//! whose row order matches [`FfId`](ffr_netlist::FfId) order, ready to be
//! fed to `ffr-ml`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod align;
mod extract;
mod graph;
mod matrix;

pub use align::{align, check_schema, RowOrigin, StackedFeatures};
pub use extract::{extract_features, extract_structural, schema_desc, FeatureGroup, FEATURE_NAMES};
pub use matrix::FeatureMatrix;
