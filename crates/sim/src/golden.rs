//! Golden (fault-free) reference run artifacts.
//!
//! Fault injection needs two things from the reference run: the
//! **output trace** of the watched ports (to classify failures) and the
//! **activity trace** (the dynamic feature source). [`GoldenRun::capture`]
//! records both in one replay of the stimulus.

use crate::activity::ActivityTrace;
use crate::compile::CompiledCircuit;
use crate::engine::SimState;
use crate::testbench::{InputFrame, OutputTrace, Stimulus, WatchList};
use serde::{Deserialize, Serialize};

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
}

impl GoldenRun {
    /// Execute the stimulus from reset, recording the watched outputs and
    /// the flip-flop activity of lane 0.
    pub fn capture(cc: &CompiledCircuit, stimulus: &dyn Stimulus, watch: &WatchList) -> GoldenRun {
        let cycles = stimulus.num_cycles();
        let mut state = SimState::new(cc);
        let mut frame = InputFrame::new(cc.num_inputs());
        let mut trace = OutputTrace::new(0, cycles, watch.len());
        let mut activity = ActivityTrace::new(cc.num_ffs());
        for cycle in 0..cycles {
            frame.clear();
            stimulus.drive(cycle, &mut frame);
            frame.apply(cc, &mut state);
            state.eval(cc);
            trace.record(cc, watch, &state);
            activity.record(cc, &state);
            state.tick(cc);
        }
        GoldenRun { trace, activity }
    }

    /// `true` when the run has the shape [`GoldenRun::capture`] gives for
    /// `cc`, `stimulus` and `watch`: a trace over every testbench cycle
    /// with one column per watched output, and activity over every
    /// flip-flop and cycle. Deserialising checks none of this, so a run
    /// served from an artifact store must pass it before anything indexes
    /// into it.
    pub fn fits(&self, cc: &CompiledCircuit, stimulus: &dyn Stimulus, watch: &WatchList) -> bool {
        let cycles = stimulus.num_cycles();
        self.trace.covers(0, cycles, watch.len()) && self.activity.covers(cc.num_ffs(), cycles)
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
    fn net_journal_row_zero_holds_reset_state() {
        let mut b = NetlistBuilder::new("r");
        let en = b.input("en", 1);
        let r = b.reg_init("r", 6, 0b10_1101);
        let next = b.inc(&r.q());
        b.connect_en(&r, &en, &next).unwrap();
        b.output("value", &r.q());
        let cc = CompiledCircuit::compile(b.finish().unwrap()).unwrap();
        let journal = NetJournal::capture(&cc, &CountEnable);
        for (ff, _) in cc.netlist().ffs() {
            let q = cc.netlist().ff_q_net(ff);
            assert_eq!(journal.net_bit(0, q), cc.netlist().ff_init(ff), "{ff}");
        }
    }

    #[test]
    fn captured_run_fits_and_reshaped_ones_do_not() {
        let cc = counter();
        let watch = WatchList::all(&cc);
        let golden = GoldenRun::capture(&cc, &CountEnable, &watch);
        assert!(golden.fits(&cc, &CountEnable, &watch));
        assert!(!golden.fits(&cc, &CountEnable, &WatchList::empty()));

        let mut short = golden.clone();
        short.trace = OutputTrace::new(0, 39, watch.len());
        assert!(!short.fits(&cc, &CountEnable, &watch));
        let mut narrow = golden;
        narrow.activity = ActivityTrace::new(cc.num_ffs() - 1);
        assert!(!narrow.fits(&cc, &CountEnable, &watch));
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
