//! Levelized, bit-parallel gate-level logic simulation.
//!
//! This crate is the workspace's substitute for the commercial logic
//! simulator the paper used. It compiles a
//! [`Netlist`](ffr_netlist::Netlist) into a flat, topologically ordered
//! operation list and evaluates it cycle by cycle with **64 independent
//! simulation lanes** packed into each `u64` word (PROOFS-style
//! bit-parallelism). The fault-injection engine uses the lanes to simulate
//! 64 fault scenarios at once; plain functional simulation uses lane 0.
//!
//! Main entry points:
//!
//! * [`CompiledCircuit::compile`] — levelize and compile a netlist,
//! * [`SimState`] — per-run state: net values, flip-flop contents, cycle,
//! * [`GoldenRun::capture`] — drive a [`Stimulus`] against a circuit from
//!   reset, recording the fault-free [`OutputTrace`] that `ffr-fault`
//!   classifies against and the per-flip-flop [`ActivityTrace`] that
//!   `ffr-features` reads,
//! * [`FaultEngine`] over a [`Cone`] and the [`NetJournal`] — the one
//!   fault-evaluation engine: differential simulation of an injection
//!   point's fan-out cone against the golden all-nets journal, as a
//!   `Quiescent → Frontier → Dense` state machine,
//! * [`mod@reference`] — a deliberately naive whole-circuit fault simulator,
//!   the **test-only oracle** the engine is proven against. Nothing but
//!   tests and benches may call it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod activity;
mod compile;
mod engine;
mod fault_engine;
mod golden;
pub mod reference;
mod testbench;

pub use activity::ActivityTrace;
pub use compile::{CompiledCircuit, Cone, SimError};
pub use engine::SimState;
pub use fault_engine::{EngineState, FaultEngine};
pub use golden::{GoldenRun, NetJournal};
pub use testbench::{InputFrame, LaneView, OutputTrace, Stimulus, WatchList};
