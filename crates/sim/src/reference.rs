//! A deliberately naive fault simulator: the **test-only oracle** the
//! [`FaultEngine`](crate::FaultEngine) and the campaign layer are
//! checked against.
//!
//! Independent validation means sharing nothing with what is validated:
//! [`simulate`] starts from [`SimState::new`] at cycle 0, drives the real
//! [`Stimulus`] every cycle, flips or forces the lanes whose time has
//! come, evaluates the **whole circuit**, records, ticks. It steps its own
//! fault-free [`SimState`] in lockstep as the golden reference, allocates
//! per call and knows no golden run, no cone, no net journal, no injection
//! schedule and no early exit. Only tests and benches may call it; it is
//! far too slow for a campaign.

use crate::compile::CompiledCircuit;
use crate::engine::{SimState, LANES};
use crate::testbench::{InputFrame, OutputTrace, Stimulus, WatchList};
use ffr_netlist::{FfId, NetId};

/// What the oracle disturbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Single-Event Upset: flip the flip-flop's stored value before the
    /// evaluation of the injection cycle.
    Seu(FfId),
    /// Single-Event Transient: XOR-force the net for exactly the
    /// evaluation of the injection cycle.
    Set(NetId),
}

/// Everything one oracle run observed, for all 64 lanes.
#[derive(Debug, Clone)]
pub struct ReferenceRun {
    /// Watched outputs over the whole testbench (cycle 0 to the end).
    pub trace: OutputTrace,
    num_ffs: usize,
    /// Row `c`: every flip-flop's word during cycle `c`.
    ff_words: Vec<u64>,
    lane_diff: Vec<u64>,
}

impl ReferenceRun {
    /// The 64-lane word flip-flop `ff` holds during `cycle` (after an
    /// injection at `cycle`, before the clock edge).
    pub fn ff_word(&self, cycle: u64, ff: FfId) -> u64 {
        self.ff_words[cycle as usize * self.num_ffs + ff.index()]
    }

    /// Lanes whose flip-flop state *entering* `cycle` differs from the
    /// fault-free run's.
    pub fn lane_diff(&self, cycle: u64) -> u64 {
        self.lane_diff[cycle as usize]
    }
}

/// Simulate `times.len()` fault scenarios of one target, lane `l` struck
/// at cycle `times[l]`, from reset to the end of the testbench.
///
/// # Panics
///
/// Panics if `times` is empty, longer than 64, or holds a cycle at or
/// beyond `stimulus.num_cycles()`.
pub fn simulate(
    cc: &CompiledCircuit,
    stimulus: &dyn Stimulus,
    watch: &WatchList,
    target: Target,
    times: &[u64],
) -> ReferenceRun {
    assert!(!times.is_empty() && times.len() <= LANES);
    let cycles = stimulus.num_cycles();
    assert!(
        times.iter().all(|&t| t < cycles),
        "injection beyond testbench end"
    );
    let ffs = || (0..cc.num_ffs()).map(FfId::from_index);
    let mut state = SimState::new(cc);
    let mut golden = SimState::new(cc);
    let mut frame = InputFrame::new(cc.num_inputs());
    let mut run = ReferenceRun {
        trace: OutputTrace::new(0, cycles, watch.len()),
        num_ffs: cc.num_ffs(),
        ff_words: Vec::new(),
        lane_diff: Vec::new(),
    };
    for cycle in 0..cycles {
        run.lane_diff.push(ffs().fold(0, |diff, ff| {
            diff | (state.ff_word(cc, ff) ^ golden.ff_word(cc, ff))
        }));
        frame.clear();
        stimulus.drive(cycle, &mut frame);
        // The fault-free reference steps in lockstep on the same frame.
        frame.apply(cc, &mut golden);
        golden.eval(cc);
        golden.tick(cc);
        frame.apply(cc, &mut state);
        let mask = (0..times.len())
            .filter(|&lane| times[lane] == cycle)
            .fold(0u64, |mask, lane| mask | 1 << lane);
        match target {
            Target::Set(net) if mask != 0 => state.eval_forced(cc, net, mask),
            Target::Seu(ff) => {
                state.flip_ff(cc, ff, mask);
                state.eval(cc);
            }
            Target::Set(_) => state.eval(cc),
        }
        for (w, &po) in watch.indices().iter().enumerate() {
            run.trace.set_word(w, cycle, state.output_word(cc, po));
        }
        run.ff_words.extend(ffs().map(|ff| state.ff_word(cc, ff)));
        state.tick(cc);
    }
    run
}
