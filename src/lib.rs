//! Umbrella crate for the FFR (Functional Failure Rate) reproduction
//! workspace.
//!
//! This crate re-exports the public APIs of the workspace members so the
//! examples and integration tests can use a single dependency. See the
//! individual crates for the actual functionality:
//!
//! * [`ffr_netlist`] — gate-level netlist substrate,
//! * [`ffr_sim`] — levelized bit-parallel logic simulator,
//! * [`ffr_circuits`] — the 10GE-MAC-like circuit and component library,
//! * [`ffr_fault`] — unified statistical SEU/SET fault-injection engine,
//! * [`ffr_features`] — per-flip-flop feature extraction,
//! * [`ffr_ml`] — from-scratch supervised regression library,
//! * [`ffr_core`] — the DSN 2019 estimation methodology,
//! * [`ffr_obs`] — dependency-free structured telemetry (spans, counters),
//! * [`ffr_campaign`] — checkpointed, resumable, adaptively-sampled
//!   campaign orchestration, the on-disk artifact store and the `ffr` CLI.

pub use ffr_campaign as campaign;
pub use ffr_circuits as circuits;
pub use ffr_core as core;
pub use ffr_fault as fault;
pub use ffr_features as features;
pub use ffr_ml as ml;
pub use ffr_netlist as netlist;
pub use ffr_obs as obs;
pub use ffr_sim as sim;
