//! The repo's benchmark: an end-to-end, layer-attributed cost ledger for
//! `ffr run → estimate → transfer → ffrd`.
//!
//! `run.sh` builds this package and runs its binary, which runs each
//! workload pass in a child process of itself ([`child`]), drives the
//! system through its real entry points ([`workloads`]), replays the
//! inputs through each layer's public functions under spans
//! ([`layers`], [`spans`]), and reports every metric of [`metrics`] by
//! name with its unit ([`report`]). See `README.md` beside this package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod child;
pub mod cli;
pub mod contract;
pub mod http;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;
