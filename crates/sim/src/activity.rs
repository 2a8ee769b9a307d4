//! Per-flip-flop signal-activity statistics.
//!
//! These statistics implement the paper's three *dynamic features*: the time
//! ratio a flip-flop output spends at logic 0 (`@0`) and logic 1 (`@1`), and
//! the number of output transitions (*State Changes*). They are collected on
//! simulation lane 0 during the golden run.

use crate::compile::CompiledCircuit;
use crate::engine::SimState;
use ffr_netlist::FfId;
use serde::{Deserialize, Serialize};

/// Signal-activity counters for every flip-flop in a circuit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivityTrace {
    cycles: u64,
    ones: Vec<u64>,
    transitions: Vec<u64>,
    last: Vec<bool>,
    first: bool,
}

impl ActivityTrace {
    /// Empty trace for `num_ffs` flip-flops.
    pub fn new(num_ffs: usize) -> ActivityTrace {
        ActivityTrace {
            cycles: 0,
            ones: vec![0; num_ffs],
            transitions: vec![0; num_ffs],
            last: vec![false; num_ffs],
            first: true,
        }
    }

    /// Record the lane-0 flip-flop values of the current cycle.
    pub fn record(&mut self, cc: &CompiledCircuit, state: &SimState) {
        for i in 0..cc.num_ffs() {
            let bit = state.ff_word(cc, FfId::from_index(i)) & 1 == 1;
            if bit {
                self.ones[i] += 1;
            }
            if !self.first && bit != self.last[i] {
                self.transitions[i] += 1;
            }
            self.last[i] = bit;
        }
        self.first = false;
        self.cycles += 1;
    }

    /// Number of recorded cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Number of flip-flops covered.
    pub fn num_ffs(&self) -> usize {
        self.ones.len()
    }

    /// `true` when the trace counts `cycles` cycles of `num_ffs`
    /// flip-flops.
    pub(crate) fn covers(&self, num_ffs: usize, cycles: u64) -> bool {
        self.cycles == cycles
            && [self.ones.len(), self.transitions.len(), self.last.len()] == [num_ffs; 3]
    }

    /// Fraction of cycles the flip-flop output was 0 (the paper's `@0`).
    pub fn at0(&self, ff: FfId) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        1.0 - self.at1(ff)
    }

    /// Fraction of cycles the flip-flop output was 1 (the paper's `@1`).
    pub fn at1(&self, ff: FfId) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.ones[ff.index()] as f64 / self.cycles as f64
    }

    /// Number of 0→1 and 1→0 output transitions (the paper's *State
    /// Changes*).
    pub fn state_changes(&self, ff: FfId) -> u64 {
        self.transitions[ff.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffr_netlist::NetlistBuilder;

    #[test]
    fn free_running_toggler_statistics() {
        let mut b = NetlistBuilder::new("t");
        let one = b.one_bit();
        let t = b.reg("t", 1);
        let inv = b.not(&t.q());
        b.connect(&t, &inv).unwrap();
        b.output("q", &t.q());
        // The builder requires at least one input for the frame machinery
        // to have work to do; add an unused one.
        let _unused = one;
        let cc = CompiledCircuit::compile(b.finish().unwrap()).unwrap();
        let mut s = SimState::new(&cc);
        let mut act = ActivityTrace::new(cc.num_ffs());
        for _ in 0..100 {
            s.eval(&cc);
            act.record(&cc, &s);
            s.tick(&cc);
        }
        let ff = FfId::from_index(0);
        assert_eq!(act.cycles(), 100);
        assert_eq!(act.state_changes(ff), 99);
        assert!((act.at1(ff) - 0.5).abs() < 0.011);
        assert!((act.at0(ff) + act.at1(ff) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_ff_has_no_transitions() {
        let mut b = NetlistBuilder::new("c");
        let a = b.input("a", 1);
        let r = b.reg("r", 1);
        let zero = b.zero_bit();
        b.connect(&r, &zero).unwrap();
        let o = b.and(&r.q(), &a);
        b.output("o", &o);
        let cc = CompiledCircuit::compile(b.finish().unwrap()).unwrap();
        let mut s = SimState::new(&cc);
        let mut act = ActivityTrace::new(cc.num_ffs());
        for _ in 0..50 {
            s.eval(&cc);
            act.record(&cc, &s);
            s.tick(&cc);
        }
        let ff = FfId::from_index(0);
        assert_eq!(act.state_changes(ff), 0);
        assert_eq!(act.at0(ff), 1.0);
        assert_eq!(act.at1(ff), 0.0);
    }

    #[test]
    fn empty_trace_is_well_defined() {
        let act = ActivityTrace::new(3);
        assert_eq!(act.at0(FfId::from_index(0)), 0.0);
        assert_eq!(act.at1(FfId::from_index(0)), 0.0);
        assert_eq!(act.num_ffs(), 3);
    }
}
