//! Fault models and failure classes.

use ffr_netlist::{FfId, NetId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The transient-fault models of the paper's background section.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// Single-Event Upset: the stored value of a sequential element is
    /// inverted and persists until overwritten.
    Seu,
    /// Single-Event Transient: the output of a combinational gate is
    /// inverted for one evaluation; it persists only if latched.
    Set,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Seu => f.write_str("SEU"),
            FaultKind::Set => f.write_str("SET"),
        }
    }
}

impl FaultKind {
    /// Parse the CLI spelling (`seu` / `set`, case-insensitive).
    pub fn parse_cli(s: &str) -> Result<FaultKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "seu" => Ok(FaultKind::Seu),
            "set" => Ok(FaultKind::Set),
            other => Err(format!(
                "unknown fault model `{other}` (expected seu or set)"
            )),
        }
    }
}

/// A single injection target: the element whose value is disturbed.
///
/// This is the unification point of the two fault models: the campaign
/// engine, the resumable runner and the checkpoint format are all written
/// against `InjectionPoint`, so SEU (flip-flop) and SET (combinational
/// net) campaigns share one batch-simulation loop, one convergence
/// early-exit, one adaptive stopping rule and one on-disk progress format.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InjectionPoint {
    /// A Single-Event Upset target: the stored value of a flip-flop.
    Seu(FfId),
    /// A Single-Event Transient target: a combinational net, XOR-forced
    /// for one evaluation.
    Set(NetId),
}

impl InjectionPoint {
    /// The fault model this point belongs to.
    pub fn kind(self) -> FaultKind {
        match self {
            InjectionPoint::Seu(_) => FaultKind::Seu,
            InjectionPoint::Set(_) => FaultKind::Set,
        }
    }

    /// Raw index of the target within its kind's id space (flip-flop
    /// index for SEU, net index for SET). Together with
    /// [`InjectionPoint::kind`] this round-trips through
    /// [`InjectionPoint::from_raw`] — the checkpoint format persists
    /// exactly this pair.
    pub fn raw_index(self) -> usize {
        match self {
            InjectionPoint::Seu(ff) => ff.index(),
            InjectionPoint::Set(net) => net.index(),
        }
    }

    /// Rebuild a point from its kind and raw index (checkpoint decoding).
    pub fn from_raw(kind: FaultKind, index: usize) -> InjectionPoint {
        match kind {
            FaultKind::Seu => InjectionPoint::Seu(FfId::from_index(index)),
            FaultKind::Set => InjectionPoint::Set(NetId::from_index(index)),
        }
    }

    /// The RNG stream of this point's injection plan.
    ///
    /// SEU keeps the historical per-flip-flop streams (plans — and
    /// therefore campaign results — are unchanged by the unification);
    /// SET points live in a disjoint stream space so a net and a
    /// flip-flop sharing an index never share a plan.
    pub fn stream(self) -> u64 {
        match self {
            InjectionPoint::Seu(ff) => ff.index() as u64,
            InjectionPoint::Set(net) => (1u64 << 62) | net.index() as u64,
        }
    }
}

impl fmt::Display for InjectionPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectionPoint::Seu(ff) => write!(f, "SEU@{ff}"),
            InjectionPoint::Set(net) => write!(f, "SET@{net}"),
        }
    }
}

/// A single planned SEU injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Fault {
    /// Target flip-flop.
    pub ff: FfId,
    /// Cycle at which the stored value is inverted (the flip is applied to
    /// the state *entering* this cycle).
    pub cycle: u64,
}

/// Outcome classification of one fault-injection run.
///
/// The paper's criterion (§IV-A) declares a run a functional failure "when
/// the final received packages contained payload corruption or the circuit
/// stopped sending or receiving data"; the variants below preserve the
/// distinction for diagnostics while `FailureClass::is_failure` collapses
/// it back to the paper's binary decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailureClass {
    /// No observable deviation at the application level.
    Benign,
    /// Received data differed from the golden payload.
    PayloadCorruption,
    /// One or more expected frames never arrived (dropped or mangled
    /// beyond recognition).
    FrameLoss,
    /// The circuit stopped sending or receiving data entirely.
    Hang,
    /// Generic primary-output mismatch (used by circuit-agnostic judges).
    OutputMismatch,
}

impl FailureClass {
    /// All classes, in tally order.
    pub const ALL: [FailureClass; 5] = [
        FailureClass::Benign,
        FailureClass::PayloadCorruption,
        FailureClass::FrameLoss,
        FailureClass::Hang,
        FailureClass::OutputMismatch,
    ];

    /// `true` for every class except [`FailureClass::Benign`].
    pub(crate) fn is_failure(self) -> bool {
        !matches!(self, FailureClass::Benign)
    }

    /// Position of the class in [`FailureClass::ALL`].
    pub fn tally_index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&c| c == self)
            .expect("class is in ALL")
    }
}

impl fmt::Display for FailureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FailureClass::Benign => "benign",
            FailureClass::PayloadCorruption => "payload-corruption",
            FailureClass::FrameLoss => "frame-loss",
            FailureClass::Hang => "hang",
            FailureClass::OutputMismatch => "output-mismatch",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_is_not_failure() {
        assert!(!FailureClass::Benign.is_failure());
        for class in FailureClass::ALL {
            if class != FailureClass::Benign {
                assert!(class.is_failure(), "{class} should be a failure");
            }
        }
    }

    #[test]
    fn tally_index_round_trips() {
        for (i, class) in FailureClass::ALL.iter().enumerate() {
            assert_eq!(class.tally_index(), i);
        }
    }

    #[test]
    fn display_strings() {
        assert_eq!(FaultKind::Seu.to_string(), "SEU");
        assert_eq!(FailureClass::Hang.to_string(), "hang");
    }

    #[test]
    fn fault_kind_cli_parsing() {
        assert_eq!(FaultKind::parse_cli("seu"), Ok(FaultKind::Seu));
        assert_eq!(FaultKind::parse_cli("SET"), Ok(FaultKind::Set));
        assert!(FaultKind::parse_cli("sbu").is_err());
    }

    #[test]
    fn injection_point_round_trips_through_raw() {
        for (kind, index) in [(FaultKind::Seu, 17usize), (FaultKind::Set, 17)] {
            let p = InjectionPoint::from_raw(kind, index);
            assert_eq!(p.kind(), kind);
            assert_eq!(p.raw_index(), index);
        }
    }

    #[test]
    fn seu_and_set_streams_are_disjoint() {
        // A flip-flop and a net sharing an index must not share an
        // injection plan; SEU streams must stay the historical ff index.
        let seu = InjectionPoint::Seu(FfId::from_index(5));
        let set = InjectionPoint::Set(NetId::from_index(5));
        assert_eq!(seu.stream(), 5);
        assert_ne!(seu.stream(), set.stream());
        assert_eq!(set.stream() & ((1 << 62) - 1), 5);
    }
}
