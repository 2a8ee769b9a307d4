use serde::{Deserialize, Serialize};
use std::fmt;

/// The standard-cell vocabulary used by every netlist in this workspace.
///
/// The set mirrors the subset of the NanGate FreePDK45 Open Cell Library that
/// the paper's synthesized 10GE MAC netlist uses: simple one- and two-input
/// combinational gates, a 2:1 multiplexer, constant drivers (tie cells) and a
/// rising-edge D flip-flop. Wider logic is composed from these by the
/// [`NetlistBuilder`](crate::NetlistBuilder), the same way a synthesis tool
/// maps RTL onto the library.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellKind {
    /// Tie-low constant driver (`LOGIC0`).
    Const0,
    /// Tie-high constant driver (`LOGIC1`).
    Const1,
    /// Non-inverting buffer (`BUF`).
    Buf,
    /// Inverter (`INV`).
    Not,
    /// 2-input AND (`AND2`).
    And2,
    /// 2-input NAND (`NAND2`).
    Nand2,
    /// 2-input OR (`OR2`).
    Or2,
    /// 2-input NOR (`NOR2`).
    Nor2,
    /// 2-input XOR (`XOR2`).
    Xor2,
    /// 2-input XNOR (`XNOR2`).
    Xnor2,
    /// 2:1 multiplexer (`MUX2`); inputs are `[a, b, s]`, output is
    /// `a` when `s = 0` and `b` when `s = 1`.
    Mux2,
    /// Rising-edge D flip-flop (`DFF`); input is `[d]`, output is `q`.
    Dff,
}

impl CellKind {
    /// All cell kinds, in a stable order.
    pub const ALL: [CellKind; 12] = [
        CellKind::Const0,
        CellKind::Const1,
        CellKind::Buf,
        CellKind::Not,
        CellKind::And2,
        CellKind::Nand2,
        CellKind::Or2,
        CellKind::Nor2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Mux2,
        CellKind::Dff,
    ];

    /// Number of input pins the cell has.
    pub fn num_inputs(self) -> usize {
        match self {
            CellKind::Const0 | CellKind::Const1 => 0,
            CellKind::Buf | CellKind::Not | CellKind::Dff => 1,
            CellKind::And2
            | CellKind::Nand2
            | CellKind::Or2
            | CellKind::Nor2
            | CellKind::Xor2
            | CellKind::Xnor2 => 2,
            CellKind::Mux2 => 3,
        }
    }

    /// `true` for the flip-flop, `false` for combinational cells.
    pub fn is_sequential(self) -> bool {
        matches!(self, CellKind::Dff)
    }

    /// `true` for constant (tie) cells.
    pub fn is_constant(self) -> bool {
        matches!(self, CellKind::Const0 | CellKind::Const1)
    }

    /// Evaluate the cell bit-parallel over 64 simulation lanes.
    ///
    /// Unused operands are ignored (e.g. `b`/`c` for an inverter). The
    /// flip-flop evaluates as a wire (`d`); sequencing is handled by the
    /// simulator, which only calls this for combinational kinds.
    #[inline(always)]
    pub fn eval(self, a: u64, b: u64, c: u64) -> u64 {
        match self {
            CellKind::Const0 => 0,
            CellKind::Const1 => !0,
            CellKind::Buf => a,
            CellKind::Not => !a,
            CellKind::And2 => a & b,
            CellKind::Nand2 => !(a & b),
            CellKind::Or2 => a | b,
            CellKind::Nor2 => !(a | b),
            CellKind::Xor2 => a ^ b,
            CellKind::Xnor2 => !(a ^ b),
            CellKind::Mux2 => (a & !c) | (b & c),
            CellKind::Dff => a,
        }
    }

    /// Library cell base name (NanGate-style, without drive-strength suffix).
    pub(crate) fn library_name(self) -> &'static str {
        match self {
            CellKind::Const0 => "LOGIC0",
            CellKind::Const1 => "LOGIC1",
            CellKind::Buf => "BUF",
            CellKind::Not => "INV",
            CellKind::And2 => "AND2",
            CellKind::Nand2 => "NAND2",
            CellKind::Or2 => "OR2",
            CellKind::Nor2 => "NOR2",
            CellKind::Xor2 => "XOR2",
            CellKind::Xnor2 => "XNOR2",
            CellKind::Mux2 => "MUX2",
            CellKind::Dff => "DFF",
        }
    }

    /// Inverse of [`CellKind::library_name`].
    pub(crate) fn from_library_name(name: &str) -> Option<CellKind> {
        Some(match name {
            "LOGIC0" => CellKind::Const0,
            "LOGIC1" => CellKind::Const1,
            "BUF" => CellKind::Buf,
            "INV" => CellKind::Not,
            "AND2" => CellKind::And2,
            "NAND2" => CellKind::Nand2,
            "OR2" => CellKind::Or2,
            "NOR2" => CellKind::Nor2,
            "XOR2" => CellKind::Xor2,
            "XNOR2" => CellKind::Xnor2,
            "MUX2" => CellKind::Mux2,
            "DFF" => CellKind::Dff,
            _ => return None,
        })
    }

    /// Names of the input pins in the order the netlist stores them,
    /// following NanGate conventions.
    pub(crate) fn input_pin_names(self) -> &'static [&'static str] {
        match self {
            CellKind::Const0 | CellKind::Const1 => &[],
            CellKind::Buf | CellKind::Not => &["A"],
            CellKind::And2 | CellKind::Nand2 | CellKind::Or2 | CellKind::Nor2 => &["A1", "A2"],
            CellKind::Xor2 | CellKind::Xnor2 => &["A", "B"],
            CellKind::Mux2 => &["A", "B", "S"],
            CellKind::Dff => &["D"],
        }
    }

    /// Name of the output pin, following NanGate conventions.
    pub(crate) fn output_pin_name(self) -> &'static str {
        match self {
            CellKind::Const0 | CellKind::Const1 | CellKind::Buf | CellKind::Mux2 => "Z",
            CellKind::Not
            | CellKind::And2
            | CellKind::Nand2
            | CellKind::Or2
            | CellKind::Nor2
            | CellKind::Xnor2 => "ZN",
            CellKind::Xor2 => "Z",
            CellKind::Dff => "Q",
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.library_name())
    }
}

/// Drive strength of a mapped cell, as a synthesis tool would pick based on
/// the load the cell has to drive.
///
/// The builder assigns strengths deterministically from fanout during
/// [`NetlistBuilder::finish`](crate::NetlistBuilder::finish); the value is
/// consumed by the feature extractor as the paper's *Flip-Flop Drive
/// Strength* synthesis feature.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum DriveStrength {
    /// Unit drive (`_X1`).
    #[default]
    X1,
    /// Double drive (`_X2`).
    X2,
    /// Quadruple drive (`_X4`).
    X4,
}

impl DriveStrength {
    /// Numeric multiplier of the drive strength (1, 2 or 4).
    pub fn multiplier(self) -> u32 {
        match self {
            DriveStrength::X1 => 1,
            DriveStrength::X2 => 2,
            DriveStrength::X4 => 4,
        }
    }

    /// Strength a synthesis heuristic would choose for the given fanout.
    pub fn for_fanout(fanout: usize) -> DriveStrength {
        match fanout {
            0..=3 => DriveStrength::X1,
            4..=8 => DriveStrength::X2,
            _ => DriveStrength::X4,
        }
    }

    /// Library suffix (`_X1`, `_X2`, `_X4`).
    pub fn suffix(self) -> &'static str {
        match self {
            DriveStrength::X1 => "_X1",
            DriveStrength::X2 => "_X2",
            DriveStrength::X4 => "_X4",
        }
    }

    /// Inverse of [`DriveStrength::suffix`].
    pub(crate) fn from_suffix(s: &str) -> Option<DriveStrength> {
        Some(match s {
            "_X0" | "_X1" => DriveStrength::X1,
            "_X2" => DriveStrength::X2,
            "_X4" => DriveStrength::X4,
            _ => return None,
        })
    }
}

impl fmt::Display for DriveStrength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}", self.multiplier())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_truth_tables() {
        // Exhaustive scalar truth tables via lane 0.
        for a in [0u64, 1] {
            for b in [0u64, 1] {
                assert_eq!(CellKind::And2.eval(a, b, 0) & 1, a & b);
                assert_eq!(CellKind::Nand2.eval(a, b, 0) & 1, !(a & b) & 1);
                assert_eq!(CellKind::Or2.eval(a, b, 0) & 1, a | b);
                assert_eq!(CellKind::Nor2.eval(a, b, 0) & 1, !(a | b) & 1);
                assert_eq!(CellKind::Xor2.eval(a, b, 0) & 1, a ^ b);
                assert_eq!(CellKind::Xnor2.eval(a, b, 0) & 1, !(a ^ b) & 1);
                for s in [0u64, 1] {
                    let expect = if s == 1 { b } else { a };
                    assert_eq!(CellKind::Mux2.eval(a, b, s.wrapping_neg()) & 1, expect);
                }
            }
            assert_eq!(CellKind::Not.eval(a, 0, 0) & 1, !a & 1);
            assert_eq!(CellKind::Buf.eval(a, 0, 0) & 1, a);
        }
        assert_eq!(CellKind::Const0.eval(0, 0, 0), 0);
        assert_eq!(CellKind::Const1.eval(0, 0, 0), !0);
    }

    #[test]
    fn eval_is_lane_parallel() {
        let a = 0xDEAD_BEEF_0123_4567u64;
        let b = 0x0F0F_F0F0_AAAA_5555u64;
        let s = 0xFFFF_0000_FFFF_0000u64;
        assert_eq!(CellKind::Mux2.eval(a, b, s), (a & !s) | (b & s));
        assert_eq!(CellKind::Nand2.eval(a, b, 0), !(a & b));
    }

    #[test]
    fn library_name_round_trip() {
        for kind in CellKind::ALL {
            assert_eq!(CellKind::from_library_name(kind.library_name()), Some(kind));
        }
        assert_eq!(CellKind::from_library_name("FOO3"), None);
    }

    #[test]
    fn pin_counts_match_names() {
        for kind in CellKind::ALL {
            assert_eq!(kind.num_inputs(), kind.input_pin_names().len());
        }
    }

    #[test]
    fn drive_strength_heuristic_is_monotonic() {
        let mut last = DriveStrength::X1;
        for fanout in 0..100 {
            let s = DriveStrength::for_fanout(fanout);
            assert!(s >= last, "strength must not decrease with fanout");
            last = s;
        }
        assert_eq!(DriveStrength::for_fanout(0), DriveStrength::X1);
        assert_eq!(DriveStrength::for_fanout(5), DriveStrength::X2);
        assert_eq!(DriveStrength::for_fanout(20), DriveStrength::X4);
    }

    #[test]
    fn drive_strength_suffix_round_trip() {
        for s in [DriveStrength::X1, DriveStrength::X2, DriveStrength::X4] {
            assert_eq!(DriveStrength::from_suffix(s.suffix()), Some(s));
        }
        assert_eq!(DriveStrength::from_suffix("_X8"), None);
    }
}
