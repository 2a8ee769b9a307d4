//! Golden (fault-free) reference run artifacts.
//!
//! Fault injection needs three things from the reference run:
//!
//! 1. the **output trace** of the watched ports (to classify failures),
//! 2. a **per-cycle journal of the packed flip-flop state** — what the
//!    [`reference`](crate::reference) oracle compares a faulty lane with
//!    to tell whether it has re-converged to the fault-free state,
//! 3. the **activity trace** (reused as the dynamic feature source).

use crate::activity::ActivityTrace;
use crate::compile::CompiledCircuit;
use crate::engine::SimState;
use crate::testbench::{InputFrame, OutputTrace, Stimulus, WatchList};
use serde::{Deserialize, Serialize};

/// Packed lane-0 flip-flop state for every cycle of a run.
///
/// Entry `c` is the state *entering* cycle `c` (i.e. before the inputs of
/// cycle `c` are applied).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateJournal {
    words_per_cycle: usize,
    cycles: u64,
    data: Vec<u64>,
}

impl StateJournal {
    fn new(words_per_cycle: usize, cycles: u64) -> StateJournal {
        StateJournal {
            words_per_cycle,
            cycles,
            data: vec![0; words_per_cycle * cycles as usize],
        }
    }

    /// Number of journalled cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Packed flip-flop state entering `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is out of range.
    pub fn state_at(&self, cycle: u64) -> &[u64] {
        assert!(cycle < self.cycles, "cycle {cycle} beyond journal");
        let row = cycle as usize * self.words_per_cycle;
        &self.data[row..row + self.words_per_cycle]
    }

    /// Value of one flip-flop at `cycle`.
    pub fn ff_bit(&self, cycle: u64, ff: ffr_netlist::FfId) -> bool {
        let s = self.state_at(cycle);
        (s[ff.index() / 64] >> (ff.index() % 64)) & 1 == 1
    }

    fn record(&mut self, cc: &CompiledCircuit, state: &SimState, scratch: &mut Vec<u64>) {
        let cycle = state.cycle();
        state.pack_ff_state(cc, 0, scratch);
        let row = cycle as usize * self.words_per_cycle;
        self.data[row..row + self.words_per_cycle].copy_from_slice(scratch);
    }
}

/// Packed lane-0 value of **every net** for every cycle of the golden
/// run — the boundary-net journal of cone-restricted fault simulation.
///
/// Row `c` is captured after the combinational evaluation of cycle `c`
/// (before the clock edge), so it holds exactly what any op reads during
/// cycle `c`: primary inputs carry the cycle-`c` stimulus, gate outputs
/// their cycle-`c` golden values, and flip-flop Q nets the state
/// *entering* cycle `c`. Broadcasting a cone's boundary nets from row `c`
/// therefore reproduces the full evaluation's environment without
/// replaying the stimulus.
///
/// Kept separate from [`GoldenRun`] (and from its serialized artifact
/// shape): it is a derived acceleration structure, recaptured lazily per
/// campaign, not part of the golden reference.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetJournal {
    words_per_cycle: usize,
    cycles: u64,
    data: Vec<u64>,
}

impl NetJournal {
    /// Replay the stimulus from reset at full-circuit speed and record
    /// every net's lane-0 value per cycle.
    pub fn capture(cc: &CompiledCircuit, stimulus: &dyn Stimulus) -> NetJournal {
        let cycles = stimulus.num_cycles();
        let words_per_cycle = cc.num_nets.div_ceil(64);
        let mut journal = NetJournal {
            words_per_cycle,
            cycles,
            data: vec![0; words_per_cycle * cycles as usize],
        };
        let mut state = SimState::new(cc);
        let mut frame = InputFrame::new(cc.num_inputs());
        let mut scratch = Vec::new();
        for cycle in 0..cycles {
            frame.clear();
            stimulus.drive(cycle, &mut frame);
            frame.apply(cc, &mut state);
            state.eval(cc);
            state.pack_net_state(0, &mut scratch);
            let row = cycle as usize * words_per_cycle;
            journal.data[row..row + words_per_cycle].copy_from_slice(&scratch);
            state.tick(cc);
        }
        journal
    }

    /// Number of journalled cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Packed net values during cycle `cycle` (post-eval, pre-tick).
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is out of range.
    pub fn row(&self, cycle: u64) -> &[u64] {
        assert!(cycle < self.cycles, "cycle {cycle} beyond net journal");
        let row = cycle as usize * self.words_per_cycle;
        &self.data[row..row + self.words_per_cycle]
    }

    /// Golden value of one net during `cycle`.
    pub fn net_bit(&self, cycle: u64, net: ffr_netlist::NetId) -> bool {
        let row = self.row(cycle);
        (row[net.index() / 64] >> (net.index() % 64)) & 1 == 1
    }
}

/// All artifacts of the golden (fault-free) reference run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldenRun {
    /// Watched-output recording of the fault-free run.
    pub trace: OutputTrace,
    /// Per-flip-flop activity statistics (dynamic features).
    pub activity: ActivityTrace,
    /// Per-cycle packed flip-flop state.
    pub journal: StateJournal,
}

impl GoldenRun {
    /// Execute the stimulus from reset and collect all reference artifacts.
    pub fn capture(cc: &CompiledCircuit, stimulus: &dyn Stimulus, watch: &WatchList) -> GoldenRun {
        let cycles = stimulus.num_cycles();
        let mut state = SimState::new(cc);
        let mut frame = InputFrame::new(cc.num_inputs());
        let mut trace = OutputTrace::new(0, cycles, watch.len());
        let mut activity = ActivityTrace::new(cc.num_ffs());
        let mut journal = StateJournal::new(cc.ff_words(), cycles);
        let mut scratch = Vec::new();
        for cycle in 0..cycles {
            journal.record(cc, &state, &mut scratch);
            frame.clear();
            stimulus.drive(cycle, &mut frame);
            frame.apply(cc, &mut state);
            state.eval(cc);
            trace.record(cc, watch, &state);
            activity.record(cc, &state);
            state.tick(cc);
        }
        GoldenRun {
            trace,
            activity,
            journal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffr_netlist::NetlistBuilder;

    struct CountEnable;

    impl Stimulus for CountEnable {
        fn num_cycles(&self) -> u64 {
            40
        }

        fn drive(&self, cycle: u64, frame: &mut InputFrame) {
            frame.set(0, !cycle.is_multiple_of(3));
        }
    }

    fn counter() -> CompiledCircuit {
        let mut b = NetlistBuilder::new("c");
        let en = b.input("en", 1);
        let r = b.reg("count", 6);
        let next = b.inc(&r.q());
        b.connect_en(&r, &en, &next).unwrap();
        b.output("value", &r.q());
        CompiledCircuit::compile(b.finish().unwrap()).unwrap()
    }

    #[test]
    fn journal_state_entering_cycle_zero_is_reset() {
        let cc = counter();
        let watch = WatchList::all(&cc);
        let golden = GoldenRun::capture(&cc, &CountEnable, &watch);
        let s0 = golden.journal.state_at(0);
        assert!(s0.iter().all(|&w| w == 0), "reset state all zeros");
        for ff in 0..cc.num_ffs() {
            assert!(!golden.journal.ff_bit(0, ffr_netlist::FfId::from_index(ff)));
        }
    }

    #[test]
    fn net_journal_rows_match_replayed_values() {
        let cc = counter();
        let journal = NetJournal::capture(&cc, &CountEnable);
        assert_eq!(journal.cycles(), 40);

        let mut state = SimState::new(&cc);
        let mut frame = InputFrame::new(cc.num_inputs());
        for cycle in 0..40u64 {
            frame.clear();
            CountEnable.drive(cycle, &mut frame);
            frame.apply(&cc, &mut state);
            state.eval(&cc);
            for net in 0..cc.netlist().num_nets() {
                let net = ffr_netlist::NetId::from_index(net);
                let expected = state.net_word(net) & 1 == 1;
                assert_eq!(
                    journal.net_bit(cycle, net),
                    expected,
                    "net {net} at cycle {cycle}"
                );
            }
            state.tick(&cc);
        }
        // Primary inputs carry the cycle's stimulus (en is low on
        // multiples of 3).
        let en = cc.netlist().primary_inputs()[0];
        assert!(!journal.net_bit(3, en));
        assert!(journal.net_bit(4, en));
    }
}
