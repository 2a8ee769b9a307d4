//! Circuit designs and testbenches for the FDR estimation pipeline.
//!
//! The centrepiece is [`Mac10ge`]: a parameterized, synthesizable-style
//! gate-level design modelled on the OpenCores 10GE MAC the paper evaluates —
//! TX/RX packet FIFOs, CRC32 generation and checking, framing state
//! machines, an XGMII-style word interface and an internal TX→RX loopback.
//! Its default configuration elaborates to roughly the paper's 1054
//! flip-flops.
//!
//! The crate also provides:
//!
//! * [`components`] — reusable RTL building blocks (synchronous FIFO, CRC32,
//!   LFSR, counters, shift registers) used by the MAC and usable on their
//!   own,
//! * [`small`] — compact circuits (counter, LFSR pipeline, ALU,
//!   traffic-light FSM) for unit tests, examples and fast campaigns,
//! * [`MacTestbench`] — the packet loopback stimulus, golden packet capture
//!   and the failure classification rules from the paper (§IV-A: *payload
//!   corruption* or *the circuit stopped sending or receiving data*).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod components;
pub mod corpus;
mod mac10ge;
mod mac_tb;
pub mod small;

pub use mac10ge::{Mac10ge, Mac10geConfig};
pub use mac_tb::{MacJudge, MacTestbench, Packet, PacketExtractor, TrafficConfig};
