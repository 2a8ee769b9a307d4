//! Statistical fault injection for gate-level circuits.
//!
//! This crate implements the paper's *flat statistical fault-injection
//! campaign* (§IV-A): for every flip-flop, a configurable number of
//! Single-Event Upsets are injected at random cycles of the active
//! simulation window; each run is classified as a **functional failure** or
//! **benign** by a circuit-specific [`FailureJudge`], and the per-flip-flop
//! **Functional De-Rating factor** is the failure fraction.
//!
//! Both fault models of the paper's background section run through **one
//! unified engine** keyed by [`InjectionPoint`]: `Seu(FfId)` flips a
//! flip-flop's stored value, `Set(NetId)` XOR-forces a combinational net
//! for a single evaluation (latched or logically de-rated away). The
//! engine is heavily optimised compared to a naive re-simulation:
//!
//! * **64 fault scenarios per simulation** — each lane of the bit-parallel
//!   simulator carries one injection time (PROOFS-style fault batching),
//! * **one differential engine** — [`ffr_sim::FaultEngine`] evaluates only
//!   what can differ from the golden run: nothing before the first
//!   injection of a batch, then the live part of the injection point's
//!   fan-out cone against a golden [`ffr_sim::NetJournal`]; out-of-cone
//!   outputs come straight from the golden trace ([`PointRunner`] /
//!   [`PointScratch`]),
//! * **early convergence exit** — once every lane's flip-flop state has
//!   returned to the golden state, the remaining cycles are provably
//!   identical and are skipped,
//! * **judge only what diverged** — the batch loop records which lanes'
//!   watched outputs ever left the golden trace (and when they last
//!   did); the rest are benign by the [`FailureJudge`] contract without a
//!   call, and [`OutputMismatchJudge`] answers from the record in O(1).
//!
//! The crate runs one injection point at a time ([`Campaign::run_point`],
//! or a slice of its plan with [`Campaign::run_point_times`]); looping
//! over a campaign's points — across threads, with checkpoints and
//! adaptive stopping — is the campaign runner's job (`ffr_campaign`).
//!
//! The statistical substrate is usable on its own — injection plans are
//! pure functions of `(seed, stream, window)`, and campaign sizing /
//! early stopping both reduce to interval arithmetic:
//!
//! ```
//! use ffr_fault::{sample_injection_times, wilson_interval, z_for_confidence};
//!
//! // The paper's fixed plan: 170 injection cycles for one flip-flop.
//! let plan = sample_injection_times(2019, 0, 100..500, 170);
//! assert_eq!(plan.len(), 170);
//!
//! // Wilson-CI early stopping: 0 failures in 64 injections already
//! // bounds the FDR below 6 % at 95 % confidence.
//! let (_, hi) = wilson_interval(0, 64, z_for_confidence(95).unwrap());
//! assert!(hi < 0.06);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod campaign;
mod judge;
mod model;
mod result;
mod sampling;
mod set;

pub use campaign::{Campaign, CampaignConfig, PointRunner, PointScratch};
pub use judge::{FailureJudge, OutputMismatchJudge};
pub use model::{FailureClass, Fault, FaultKind, InjectionPoint};
pub use result::{failures_in, FdrHistogram, FdrTable, FfCampaignResult};
pub use sampling::{
    confidence_for_z, required_sample_size, sample_injection_times, wilson_interval,
    z_for_confidence,
};
pub use set::{NetSetResult, SetDeratingTable};
