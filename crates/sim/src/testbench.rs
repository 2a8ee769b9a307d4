//! Open-loop testbench infrastructure: stimulus, output recording, lane
//! views.

use crate::compile::CompiledCircuit;
use crate::engine::SimState;
use serde::{Deserialize, Serialize};

/// One cycle's worth of primary-input values (a 64-lane word per input).
///
/// The frame is cleared to all-zero before every [`Stimulus::drive`] call,
/// so a stimulus must set every input it wants non-zero on every cycle.
/// This is what makes runs restartable from any cycle.
#[derive(Debug, Clone)]
pub struct InputFrame {
    words: Vec<u64>,
}

impl InputFrame {
    /// Frame for a circuit with `num_inputs` primary inputs, all zero.
    pub fn new(num_inputs: usize) -> InputFrame {
        InputFrame {
            words: vec![0; num_inputs],
        }
    }

    /// Reset every input to 0 on all lanes.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Set input `index` to `value` on all lanes.
    pub fn set(&mut self, index: usize, value: bool) {
        self.words[index] = if value { !0 } else { 0 };
    }

    /// Set a whole bus of consecutive single-bit inputs from an integer
    /// value, LSB first: input `base + i` receives bit `i` of `value`.
    pub fn set_bus(&mut self, base: usize, width: usize, value: u64) {
        for i in 0..width {
            self.set(base + i, (value >> i) & 1 == 1);
        }
    }

    /// Number of inputs in the frame.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` if the circuit has no primary inputs.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Apply the frame to the simulator's primary inputs.
    pub fn apply(&self, cc: &CompiledCircuit, state: &mut SimState) {
        for (i, &w) in self.words.iter().enumerate() {
            state.set_input_lanes(cc, i, w);
        }
    }
}

/// An open-loop input stimulus.
///
/// `drive` must be a **pure function of the cycle number**: the fault
/// engine replays arbitrary suffixes of the testbench, so two calls with
/// the same cycle must produce the same frame. Precompute any schedule in
/// the constructor.
pub trait Stimulus {
    /// Total number of cycles the testbench runs.
    fn num_cycles(&self) -> u64;

    /// Fill `frame` with the input values for `cycle`.
    fn drive(&self, cycle: u64, frame: &mut InputFrame);
}

impl<S: Stimulus + ?Sized> Stimulus for &S {
    fn num_cycles(&self) -> u64 {
        (**self).num_cycles()
    }

    fn drive(&self, cycle: u64, frame: &mut InputFrame) {
        (**self).drive(cycle, frame)
    }
}

/// The set of primary outputs a testbench wants recorded.
///
/// Recording every output of a large design for every cycle and lane is
/// wasteful; failure classification usually needs only the user-visible
/// interface (e.g. the RX packet port of the MAC).
#[derive(Debug, Clone)]
pub struct WatchList {
    indices: Vec<usize>,
}

impl WatchList {
    /// Watch the outputs with the given port names.
    ///
    /// # Panics
    ///
    /// Panics if a name is not a primary output of the netlist.
    pub fn by_names(cc: &CompiledCircuit, names: &[&str]) -> WatchList {
        let indices = names
            .iter()
            .map(|n| {
                cc.netlist()
                    .output_index(n)
                    .unwrap_or_else(|| panic!("no primary output named `{n}`"))
            })
            .collect();
        WatchList { indices }
    }

    /// Watch a whole output bus `name[0]..name[width-1]` (or the scalar
    /// `name` if `width == 1`), returning the watch offsets of its bits.
    ///
    /// # Panics
    ///
    /// Panics if a port is missing.
    pub fn push_bus(&mut self, cc: &CompiledCircuit, name: &str, width: usize) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(width);
        for i in 0..width {
            let port = if width == 1 {
                name.to_string()
            } else {
                format!("{name}[{i}]")
            };
            let idx = cc
                .netlist()
                .output_index(&port)
                .unwrap_or_else(|| panic!("no primary output named `{port}`"));
            offsets.push(self.indices.len());
            self.indices.push(idx);
        }
        offsets
    }

    /// Empty watch list to be extended with [`WatchList::push_bus`].
    pub fn empty() -> WatchList {
        WatchList {
            indices: Vec::new(),
        }
    }

    /// Watch every primary output.
    pub fn all(cc: &CompiledCircuit) -> WatchList {
        WatchList {
            indices: (0..cc.num_outputs()).collect(),
        }
    }

    /// Number of watched outputs.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// `true` if nothing is watched.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The watched primary-output indices.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }
}

/// Recorded values of the watched outputs over a cycle range, all 64 lanes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutputTrace {
    start: u64,
    end: u64,
    width: usize,
    data: Vec<u64>,
}

impl OutputTrace {
    /// Allocate a trace covering `start..end` cycles of `width` outputs.
    pub fn new(start: u64, end: u64, width: usize) -> OutputTrace {
        assert!(end >= start);
        OutputTrace {
            start,
            end,
            width,
            data: vec![0; (end - start) as usize * width],
        }
    }

    /// Re-initialize the trace in place to `source`'s contents over
    /// `start..source.end`, reusing the allocation — the batch loop seeds
    /// the faulty trace with the golden trace in one bulk copy, then
    /// overwrites only the rows where a watched output actually deviates.
    ///
    /// # Panics
    ///
    /// Panics if `start` is outside `source`'s range or the widths would
    /// differ.
    pub fn reset_from(&mut self, source: &OutputTrace, start: u64) {
        assert!(
            start >= source.start && start <= source.end,
            "cycle {start} outside source trace range {}..{}",
            source.start,
            source.end
        );
        self.start = start;
        self.end = source.end;
        self.width = source.width;
        let from = (start - source.start) as usize * source.width;
        self.data.clear();
        self.data.extend_from_slice(&source.data[from..]);
    }

    /// All watched-output words of one cycle, in watch-list order.
    ///
    /// # Panics
    ///
    /// Panics if the cycle is outside the recorded range.
    pub fn row(&self, cycle: u64) -> &[u64] {
        assert!(
            cycle >= self.start && cycle < self.end,
            "cycle {cycle} outside trace range {}..{}",
            self.start,
            self.end
        );
        let row = (cycle - self.start) as usize * self.width;
        &self.data[row..row + self.width]
    }

    /// Mutable access to one cycle's watched-output words.
    ///
    /// # Panics
    ///
    /// Panics if the cycle is outside the recorded range.
    pub fn row_mut(&mut self, cycle: u64) -> &mut [u64] {
        assert!(
            cycle >= self.start && cycle < self.end,
            "cycle {cycle} outside trace range {}..{}",
            self.start,
            self.end
        );
        let row = (cycle - self.start) as usize * self.width;
        &mut self.data[row..row + self.width]
    }

    /// First recorded cycle.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// One past the last recorded cycle.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Number of watched outputs.
    pub fn width(&self) -> usize {
        self.width
    }

    /// `true` when the trace records `start..end` for `width` outputs and
    /// holds exactly that many words.
    pub(crate) fn covers(&self, start: u64, end: u64, width: usize) -> bool {
        (self.start, self.end, self.width) == (start, end, width)
            && (end - start).checked_mul(width as u64) == Some(self.data.len() as u64)
    }

    /// Record the watched outputs of `state` at its current cycle.
    ///
    /// # Panics
    ///
    /// Panics (in debug) if the cycle is outside the trace range.
    pub fn record(&mut self, cc: &CompiledCircuit, watch: &WatchList, state: &SimState) {
        let cycle = state.cycle();
        debug_assert!(cycle >= self.start && cycle < self.end);
        let row = (cycle - self.start) as usize * self.width;
        for (w, &po) in watch.indices().iter().enumerate() {
            self.data[row + w] = state.output_word(cc, po);
        }
    }

    /// Overwrite the 64-lane word of watched output `w` at `cycle`.
    ///
    /// Intended for constructing synthetic traces in tests and for tools
    /// that splice traces; the simulator itself records via `record`.
    ///
    /// # Panics
    ///
    /// Panics if the cycle is outside the recorded range.
    pub fn set_word(&mut self, w: usize, cycle: u64, word: u64) {
        assert!(
            cycle >= self.start && cycle < self.end,
            "cycle {cycle} outside trace range {}..{}",
            self.start,
            self.end
        );
        self.data[(cycle - self.start) as usize * self.width + w] = word;
    }

    /// Raw 64-lane word of watched output `w` at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if the cycle is outside the recorded range.
    pub fn word(&self, w: usize, cycle: u64) -> u64 {
        assert!(
            cycle >= self.start && cycle < self.end,
            "cycle {cycle} outside trace range {}..{}",
            self.start,
            self.end
        );
        self.data[(cycle - self.start) as usize * self.width + w]
    }

    /// Bit of watched output `w` at `cycle` on `lane`.
    pub fn bit(&self, w: usize, cycle: u64, lane: usize) -> bool {
        (self.word(w, cycle) >> lane) & 1 == 1
    }
}

/// A single-lane, single-scenario view over a faulty trace backed by the
/// golden trace.
///
/// Failure classifiers read outputs through this view; it transparently
/// serves golden data for cycles before the faulty recording starts (the
/// fault had not been injected yet) and after the lane's re-convergence
/// cycle (the faulty state equals golden, so outputs are provably equal).
#[derive(Debug, Clone, Copy)]
pub struct LaneView<'a> {
    golden: &'a OutputTrace,
    faulty: Option<&'a OutputTrace>,
    lane: usize,
    /// Cycle from which outputs are known to equal golden again.
    golden_from: Option<u64>,
    /// The campaign's record of [`LaneView::last_diff`], when it built
    /// the view.
    last_diff: Option<u64>,
}

impl<'a> LaneView<'a> {
    /// View of the golden run itself.
    pub fn golden(golden: &'a OutputTrace) -> LaneView<'a> {
        LaneView {
            golden,
            faulty: None,
            lane: 0,
            golden_from: Some(0),
            last_diff: None,
        }
    }

    /// View of fault-scenario `lane` within `faulty`, backed by `golden`.
    pub fn faulty(
        golden: &'a OutputTrace,
        faulty: &'a OutputTrace,
        lane: usize,
        golden_from: Option<u64>,
    ) -> LaneView<'a> {
        LaneView {
            golden,
            faulty: Some(faulty),
            lane,
            golden_from,
            last_diff: None,
        }
    }

    /// Attach the batch loop's divergence record: `cycle` is the last
    /// cycle at which a watched output of this lane differs from golden,
    /// so [`LaneView::last_diff`] answers without scanning the traces.
    pub fn with_last_diff(mut self, cycle: u64) -> LaneView<'a> {
        self.last_diff = Some(cycle);
        self
    }

    /// Total number of cycles covered (same as the golden trace).
    pub fn num_cycles(&self) -> u64 {
        self.golden.end()
    }

    /// Number of watched outputs.
    pub fn width(&self) -> usize {
        self.golden.width()
    }

    /// Value of watched output `w` at `cycle` for this scenario.
    pub fn bit(&self, w: usize, cycle: u64) -> bool {
        if let Some(g) = self.golden_from {
            if cycle >= g {
                return self.golden.bit(w, cycle, 0);
            }
        }
        match self.faulty {
            Some(f) if cycle >= f.start() && cycle < f.end() => f.bit(w, cycle, self.lane),
            _ => self.golden.bit(w, cycle, 0),
        }
    }

    /// The last cycle at which any watched output of this scenario
    /// differs from golden, `None` if the view is bit for bit the golden
    /// view. Answered from the record when the campaign built the view
    /// ([`LaneView::with_last_diff`]); otherwise computed by one backward
    /// scan of the two traces — the definition the record is tested
    /// against.
    pub fn last_diff(&self) -> Option<u64> {
        self.last_diff.or_else(|| {
            let faulty = self.faulty?;
            let end = faulty.end().min(self.golden.end());
            let end = self.golden_from.map_or(end, |g| g.min(end));
            (faulty.start()..end).rev().find(|&cycle| {
                let rows = faulty.row(cycle).iter().zip(self.golden.row(cycle));
                rows.fold(0u64, |acc, (f, g)| acc | ((f >> self.lane) ^ g)) & 1 == 1
            })
        })
    }

    /// Read a multi-bit value from consecutive watch offsets, LSB first.
    pub fn value(&self, offsets: &[usize], cycle: u64) -> u64 {
        offsets.iter().enumerate().fold(0u64, |acc, (i, &w)| {
            acc | ((self.bit(w, cycle) as u64) << i)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GoldenRun;
    use ffr_netlist::NetlistBuilder;

    struct PulseEvery4;

    impl Stimulus for PulseEvery4 {
        fn num_cycles(&self) -> u64 {
            32
        }

        fn drive(&self, cycle: u64, frame: &mut InputFrame) {
            frame.set(0, cycle.is_multiple_of(4));
        }
    }

    fn toggler() -> CompiledCircuit {
        let mut b = NetlistBuilder::new("t");
        let en = b.input("en", 1);
        let t = b.reg("t", 1);
        let inv = b.not(&t.q());
        b.connect_en(&t, &en, &inv).unwrap();
        b.output("q", &t.q());
        CompiledCircuit::compile(b.finish().unwrap()).unwrap()
    }

    #[test]
    fn trace_records_expected_waveform() {
        let cc = toggler();
        let watch = WatchList::all(&cc);
        let run = GoldenRun::capture(&cc, &PulseEvery4, &watch);
        // q toggles on cycles where en=1 (0,4,8,...): value changes at
        // cycles 1, 5, 9, ... and holds in between.
        let mut expected = false;
        for cycle in 0..32u64 {
            assert_eq!(run.trace.bit(0, cycle, 0), expected, "cycle {cycle}");
            if cycle % 4 == 0 {
                expected = !expected;
            }
        }
    }

    #[test]
    fn activity_counts_toggles() {
        let cc = toggler();
        let watch = WatchList::all(&cc);
        let run = GoldenRun::capture(&cc, &PulseEvery4, &watch);
        let ff = ffr_netlist::FfId::from_index(0);
        // 8 enables in 32 cycles -> 8 transitions (first at cycle 1).
        assert_eq!(run.activity.state_changes(ff), 8);
        let at1 = run.activity.at1(ff);
        assert!(at1 > 0.4 && at1 < 0.6, "roughly half the time high: {at1}");
    }

    #[test]
    fn lane_view_golden_delegation() {
        let cc = toggler();
        let watch = WatchList::all(&cc);
        let run = GoldenRun::capture(&cc, &PulseEvery4, &watch);
        // A faulty trace that recorded only cycles 8..16 and re-converged
        // at cycle 12 on lane 3.
        let mut faulty = OutputTrace::new(8, 16, 1);
        // Copy golden words, then invert lane 3 between 8..12.
        for cycle in 8..16u64 {
            let w = run.trace.word(0, cycle);
            let w = if cycle < 12 { w ^ (1u64 << 3) } else { w };
            faulty.data[(cycle - 8) as usize] = w;
        }
        let view = LaneView::faulty(&run.trace, &faulty, 3, Some(12));
        for cycle in 0..32u64 {
            let g = run.trace.bit(0, cycle, 0);
            let got = view.bit(0, cycle);
            if (8..12).contains(&cycle) {
                assert_eq!(got, !g, "inverted region at {cycle}");
            } else {
                assert_eq!(got, g, "golden region at {cycle}");
            }
        }
        // The last deviation is found by scanning, honours the
        // re-convergence cycle and the lane, and a record overrides it.
        assert_eq!(view.last_diff(), Some(11));
        faulty.data[7] ^= 1u64 << 3;
        let view = LaneView::faulty(&run.trace, &faulty, 3, Some(12));
        assert_eq!(view.last_diff(), Some(11), "cycle 15 is past golden_from");
        let unconverged = LaneView::faulty(&run.trace, &faulty, 3, None);
        assert_eq!(unconverged.last_diff(), Some(15));
        assert_eq!(unconverged.with_last_diff(9).last_diff(), Some(9));
        let other_lane = LaneView::faulty(&run.trace, &faulty, 4, None);
        assert_eq!(other_lane.last_diff(), None);
        assert_eq!(LaneView::golden(&run.trace).last_diff(), None);
    }

    #[test]
    fn watch_list_by_names_and_bus() {
        let mut b = NetlistBuilder::new("w");
        let a = b.input("a", 4);
        let r = b.reg("r", 4);
        b.connect(&r, &a).unwrap();
        b.output("o", &r.q());
        b.output("flag", &r.q().bit(0));
        let cc = CompiledCircuit::compile(b.finish().unwrap()).unwrap();
        let w1 = WatchList::by_names(&cc, &["flag", "o[2]"]);
        assert_eq!(w1.len(), 2);
        let mut w2 = WatchList::empty();
        let offs = w2.push_bus(&cc, "o", 4);
        assert_eq!(offs, vec![0, 1, 2, 3]);
        assert_eq!(w2.len(), 4);
        assert!(!w2.is_empty());
    }

    #[test]
    fn input_frame_bus_helper() {
        let mut f = InputFrame::new(8);
        f.set_bus(2, 4, 0b1011);
        assert_eq!(f.words[2], !0);
        assert_eq!(f.words[3], !0);
        assert_eq!(f.words[4], 0);
        assert_eq!(f.words[5], !0);
        assert_eq!(f.len(), 8);
    }
}
