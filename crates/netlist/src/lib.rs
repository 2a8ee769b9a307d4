//! Gate-level netlist substrate for the Functional De-Rating (FDR) estimation
//! pipeline.
//!
//! This crate provides the circuit representation that everything else in the
//! workspace builds on:
//!
//! * [`CellKind`] — a NanGate-FreePDK45-like standard-cell vocabulary
//!   (2-input gates, inverter/buffer, 2:1 mux, constants and a D flip-flop),
//! * [`Netlist`] — an immutable, validated gate-level netlist with named
//!   nets, primary I/O, a flip-flop table and register-bus metadata,
//! * [`NetlistBuilder`] — an RTL-style construction API ([`Bus`] word
//!   operators, registers with enable/synchronous reset, adders, muxes, …)
//!   that *lowers* everything to the standard-cell vocabulary, the same way
//!   a synthesis tool maps RTL onto a cell library,
//! * [`verilog`] — a structural-Verilog emitter and a parser for the same
//!   subset, so netlists can be round-tripped to disk.
//!
//! The paper this workspace reproduces (Lange et al., DSN 2019) works on a
//! gate-level netlist of the OpenCores 10GE MAC synthesized with NanGate
//! FreePDK45; this crate is the from-scratch substitute for that netlist
//! infrastructure.
//!
//! # Example
//!
//! ```
//! use ffr_netlist::NetlistBuilder;
//!
//! # fn main() -> Result<(), ffr_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new("toggler");
//! let en = b.input("en", 1);
//! let t = b.reg("t", 1);
//! let inv = b.not(&t.q());
//! let next = b.mux(&en, &t.q(), &inv); // hold when en=0, toggle when en=1
//! b.connect(&t, &next)?;
//! b.output("q", &t.q());
//! let netlist = b.finish()?;
//! assert_eq!(netlist.num_ffs(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod bus;
mod cell;
mod error;
mod netlist;
mod stats;
pub mod verilog;

mod builder;

pub use builder::{NetlistBuilder, RegHandle};
pub use bus::Bus;
pub use cell::{CellKind, DriveStrength};
pub use error::NetlistError;
pub use netlist::{BusInfo, Cell, CellId, FfId, Net, NetId, Netlist};
pub use stats::NetlistStats;
