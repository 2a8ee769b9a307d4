//! The dense whole-circuit simulation state and evaluation loop.

use crate::compile::{CompiledCircuit, Op};
use ffr_netlist::FfId;

/// Number of independent simulation lanes packed into each net value.
pub(crate) const LANES: usize = 64;

/// Evaluate `ops` in order over the flat net-value array.
pub(crate) fn eval_ops(v: &mut [u64], ops: &[Op]) {
    for op in ops {
        let a = v[op.a as usize];
        let b = v[op.b as usize];
        let c = v[op.c as usize];
        v[op.out as usize] = op.kind.eval(a, b, c);
    }
}

/// Evaluate `ops` in order with `mask` XOR-forced onto the output of
/// `ops[at]`, in topological position. Splitting the list at the forced
/// op keeps both sides at full [`eval_ops`] speed instead of testing
/// every op against the target.
pub(crate) fn eval_ops_forced(v: &mut [u64], ops: &[Op], at: usize, mask: u64) {
    let (before, rest) = ops.split_at(at);
    eval_ops(v, before);
    let op = &rest[0];
    let a = v[op.a as usize];
    let b = v[op.b as usize];
    let c = v[op.c as usize];
    v[op.out as usize] = op.kind.eval(a, b, c) ^ mask;
    eval_ops(v, &rest[1..]);
}

/// Mutable state of one simulation run: a `u64` per net (64 lanes), the
/// flip-flop contents, and the current cycle number.
///
/// The lanes are fully independent scenarios sharing the same primary-input
/// stimulus (unless per-lane inputs are set explicitly). This is the
/// whole-circuit evaluator behind golden-run and journal capture and the
/// [`reference`](crate::reference) oracle; fault campaigns run on the
/// cone-restricted [`FaultEngine`](crate::FaultEngine) instead.
#[derive(Debug, Clone)]
pub struct SimState {
    values: Vec<u64>,
    scratch: Vec<u64>,
    cycle: u64,
}

impl SimState {
    /// Fresh state at cycle 0 with every flip-flop at its power-on value
    /// (broadcast to all lanes) and all other nets at 0.
    pub fn new(cc: &CompiledCircuit) -> SimState {
        let mut s = SimState {
            values: vec![0u64; cc.num_nets],
            scratch: vec![0u64; cc.num_ffs()],
            cycle: 0,
        };
        for (i, &q) in cc.ff_q.iter().enumerate() {
            s.values[q as usize] = if cc.ff_init[i] { !0 } else { 0 };
        }
        s
    }

    /// Current cycle number (increments on [`SimState::tick`]).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Drive primary input `pi_index` with the same value on all lanes.
    pub fn set_input(&mut self, cc: &CompiledCircuit, pi_index: usize, value: bool) {
        self.values[cc.pi_nets[pi_index] as usize] = if value { !0 } else { 0 };
    }

    /// Drive primary input `pi_index` with a per-lane bit pattern.
    pub fn set_input_lanes(&mut self, cc: &CompiledCircuit, pi_index: usize, word: u64) {
        self.values[cc.pi_nets[pi_index] as usize] = word;
    }

    /// Evaluate all combinational logic for the current inputs and
    /// flip-flop state.
    pub fn eval(&mut self, cc: &CompiledCircuit) {
        eval_ops(&mut self.values, &cc.ops);
    }

    /// Evaluate combinational logic while forcing a transient XOR onto one
    /// net (a Single-Event Transient on the driving gate's output).
    ///
    /// The flip is applied in topological position, so downstream logic in
    /// the same cycle observes the disturbed value; the effect lasts for
    /// this evaluation only.
    pub fn eval_forced(&mut self, cc: &CompiledCircuit, net: ffr_netlist::NetId, mask: u64) {
        let v = &mut self.values;
        match cc.driver_op(net.index() as u32) {
            // A forced primary input / FF output is flipped before the ops
            // run (the flip persists until the driver overwrites it: the
            // next input frame or clock edge).
            None => {
                v[net.index()] ^= mask;
                eval_ops(v, &cc.ops);
            }
            Some(driver) => eval_ops_forced(v, &cc.ops, driver as usize, mask),
        }
    }

    /// Pack the lane-`lane` value of **every net** into `out` (one bit
    /// per net). This is the capture primitive of
    /// [`NetJournal`](crate::NetJournal).
    pub(crate) fn pack_net_state(&self, lane: usize, out: &mut Vec<u64>) {
        debug_assert!(lane < LANES);
        out.clear();
        out.resize(self.values.len().div_ceil(64), 0);
        for (n, &w) in self.values.iter().enumerate() {
            out[n / 64] |= ((w >> lane) & 1) << (n % 64);
        }
    }

    /// Advance one clock edge: every flip-flop captures its data input.
    ///
    /// Call [`SimState::eval`] first so data inputs are up to date.
    pub fn tick(&mut self, cc: &CompiledCircuit) {
        // Two passes: capture all D values first so FF-to-FF shift paths
        // (Q wired straight to the next D) behave like real hardware.
        for (i, &d) in cc.ff_d.iter().enumerate() {
            self.scratch[i] = self.values[d as usize];
        }
        for (i, &q) in cc.ff_q.iter().enumerate() {
            self.values[q as usize] = self.scratch[i];
        }
        self.cycle += 1;
    }

    /// XOR-flip the stored value of a flip-flop on the lanes selected by
    /// `mask`. This models a Single-Event Upset.
    ///
    /// Combinational logic is *not* re-evaluated; call [`SimState::eval`]
    /// afterwards (the flip is applied before the evaluation of the
    /// injection cycle).
    pub fn flip_ff(&mut self, cc: &CompiledCircuit, ff: FfId, mask: u64) {
        self.values[cc.ff_q[ff.index()] as usize] ^= mask;
    }

    /// Current 64-lane word stored in a flip-flop.
    pub fn ff_word(&self, cc: &CompiledCircuit, ff: FfId) -> u64 {
        self.values[cc.ff_q[ff.index()] as usize]
    }

    /// Current 64-lane word on primary output `po_index`.
    pub fn output_word(&self, cc: &CompiledCircuit, po_index: usize) -> u64 {
        self.values[cc.po_nets[po_index] as usize]
    }

    /// Current 64-lane word on an arbitrary net.
    pub fn net_word(&self, net: ffr_netlist::NetId) -> u64 {
        self.values[net.index()]
    }

    /// Pack the lane-`lane` flip-flop state into `out` (one bit per FF).
    ///
    /// `out` is resized to one bit per flip-flop in `u64` words.
    pub fn pack_ff_state(&self, cc: &CompiledCircuit, lane: usize, out: &mut Vec<u64>) {
        debug_assert!(lane < LANES);
        out.clear();
        out.resize(cc.ff_words(), 0);
        for (i, &q) in cc.ff_q.iter().enumerate() {
            let bit = (self.values[q as usize] >> lane) & 1;
            out[i / 64] |= bit << (i % 64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffr_netlist::NetlistBuilder;

    fn counter4() -> CompiledCircuit {
        let mut b = NetlistBuilder::new("c");
        let en = b.input("en", 1);
        let r = b.reg("count", 4);
        let next = b.inc(&r.q());
        b.connect_en(&r, &en, &next).unwrap();
        b.output("value", &r.q());
        CompiledCircuit::compile(b.finish().unwrap()).unwrap()
    }

    fn read_count(cc: &CompiledCircuit, s: &SimState, lane: usize) -> u64 {
        (0..4).fold(0u64, |acc, i| {
            acc | (((s.output_word(cc, i) >> lane) & 1) << i)
        })
    }

    #[test]
    fn counter_counts() {
        let cc = counter4();
        let mut s = SimState::new(&cc);
        for expected in 0..20u64 {
            s.set_input(&cc, 0, true);
            s.eval(&cc);
            assert_eq!(read_count(&cc, &s, 0), expected % 16);
            assert_eq!(read_count(&cc, &s, 63), expected % 16, "lanes agree");
            s.tick(&cc);
        }
        assert_eq!(s.cycle(), 20);
    }

    #[test]
    fn enable_holds_value() {
        let cc = counter4();
        let mut s = SimState::new(&cc);
        for _ in 0..5 {
            s.set_input(&cc, 0, true);
            s.eval(&cc);
            s.tick(&cc);
        }
        for _ in 0..3 {
            s.set_input(&cc, 0, false);
            s.eval(&cc);
            assert_eq!(read_count(&cc, &s, 0), 5);
            s.tick(&cc);
        }
    }

    #[test]
    fn flip_diverges_single_lane() {
        let cc = counter4();
        let mut s = SimState::new(&cc);
        s.set_input(&cc, 0, true);
        s.eval(&cc);
        s.tick(&cc);
        // Flip bit 1 of the counter on lane 7 only.
        s.flip_ff(&cc, FfId::from_index(1), 1u64 << 7);
        s.set_input(&cc, 0, true);
        s.eval(&cc);
        let lane0 = read_count(&cc, &s, 0);
        let lane7 = read_count(&cc, &s, 7);
        assert_eq!(lane0 ^ lane7, 0b0010);
    }

    #[test]
    fn per_lane_inputs() {
        let cc = counter4();
        let mut s = SimState::new(&cc);
        // Enable only lanes 0..32.
        for _ in 0..4 {
            s.set_input_lanes(&cc, 0, 0x0000_0000_FFFF_FFFF);
            s.eval(&cc);
            s.tick(&cc);
        }
        s.eval(&cc);
        assert_eq!(read_count(&cc, &s, 0), 4);
        assert_eq!(read_count(&cc, &s, 40), 0);
    }

    #[test]
    fn eval_forced_disturbs_gate_output_transiently() {
        let cc = counter4();
        let mut s = SimState::new(&cc);
        // Golden step for reference.
        let mut golden = SimState::new(&cc);
        for _ in 0..3 {
            s.set_input(&cc, 0, true);
            golden.set_input(&cc, 0, true);
            s.eval(&cc);
            golden.eval(&cc);
            s.tick(&cc);
            golden.tick(&cc);
        }
        // Force the D input of counter bit 0 on lane 5 for one cycle; the
        // transient is latched and the lane diverges afterwards.
        let d_net = cc.netlist().ff_d_net(FfId::from_index(0));
        s.set_input(&cc, 0, true);
        golden.set_input(&cc, 0, true);
        s.eval_forced(&cc, d_net, 1u64 << 5);
        golden.eval(&cc);
        // During the forced cycle, lane 5 sees the flipped value on d.
        assert_eq!(
            s.net_word(d_net) ^ golden.net_word(d_net),
            1u64 << 5,
            "transient visible only on lane 5"
        );
        s.tick(&cc);
        golden.tick(&cc);
        s.eval(&cc);
        golden.eval(&cc);
        // The latched disturbance persists in the counter value.
        assert_ne!(
            read_count(&cc, &s, 5),
            read_count(&cc, &golden, 5),
            "latched SET diverges lane 5"
        );
        assert_eq!(read_count(&cc, &s, 0), read_count(&cc, &golden, 0));
    }

    #[test]
    fn eval_forced_on_primary_input_net() {
        // Forcing a source net (no driving op) takes the pre-flip branch.
        let cc = counter4();
        let pi_net = cc.netlist().primary_inputs()[0];
        let mut s = SimState::new(&cc);
        s.set_input(&cc, 0, false); // enable low everywhere
        s.eval_forced(&cc, pi_net, 1u64 << 9); // but forced high on lane 9
        s.tick(&cc);
        s.eval(&cc);
        assert_eq!(read_count(&cc, &s, 9), 1, "forced lane counted");
        assert_eq!(read_count(&cc, &s, 0), 0, "other lanes held");
    }

    #[test]
    fn initial_value_respected() {
        let mut b = NetlistBuilder::new("i");
        let a = b.input("a", 2);
        let r = b.reg_init("r", 2, 0b10);
        b.connect(&r, &a).unwrap();
        b.output("o", &r.q());
        let cc = CompiledCircuit::compile(b.finish().unwrap()).unwrap();
        let mut s = SimState::new(&cc);
        s.eval(&cc);
        assert_eq!(s.output_word(&cc, 0), 0);
        assert_eq!(s.output_word(&cc, 1), !0);
    }
}
