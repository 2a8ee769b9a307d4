//! Property tests for the forced-evaluation (SET) path.
//!
//! `eval_forced` on a flip-flop's Q net is a source-net force: the stored
//! value is XOR-flipped before the op list runs, which is exactly what
//! `flip_ff` + `eval` does. The two must therefore be observationally
//! equivalent — same outputs, same net values, same downstream state —
//! for one cycle and for the rest of the run. Forcing a gate-driven net
//! splits the op list at the driving op; that path is pinned against a
//! plain evaluation on the unmasked lanes. `eval_forced` is the SET
//! primitive of the [`reference`](ffr_sim::reference) oracle, so these
//! properties are what the oracle's own trustworthiness rests on.

use ffr_netlist::{FfId, NetlistBuilder};
use ffr_sim::{CompiledCircuit, SimState};
use proptest::prelude::*;

/// A small sequential design with an enabled counter and parity logic so
/// flips propagate through several levels.
fn circuit(width: usize) -> CompiledCircuit {
    let mut b = NetlistBuilder::new("forced");
    let en = b.input("en", 1);
    let r = b.reg("count", width);
    let next = b.inc(&r.q());
    b.connect_en(&r, &en, &next).unwrap();
    b.output("value", &r.q());
    let parity = b.reduce_xor(&r.q());
    b.output("parity", &parity);
    CompiledCircuit::compile(b.finish().unwrap()).unwrap()
}

fn outputs(cc: &CompiledCircuit, s: &SimState) -> Vec<u64> {
    (0..cc.num_outputs())
        .map(|o| s.output_word(cc, o))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any flip-flop, lane mask and injection cycle, forcing the Q
    /// net for one cycle equals flipping the flip-flop and evaluating:
    /// identical outputs in the forced cycle and identical evolution for
    /// every following cycle.
    #[test]
    fn eval_forced_on_q_net_equals_flip_ff_plus_eval(
        width in 2usize..7,
        ff_index in 0usize..7,
        mask in any::<u64>(),
        inject_at in 0u64..12,
        total in 12u64..24,
    ) {
        let cc = circuit(width);
        let ff = FfId::from_index(ff_index % cc.num_ffs());
        let q_net = cc.netlist().ff_q_net(ff);
        prop_assert!(!cc.comb_output_nets().contains(&q_net), "Q is a source net");

        let mut forced = SimState::new(&cc);
        let mut flipped = SimState::new(&cc);
        for cycle in 0..total {
            forced.set_input(&cc, 0, true);
            flipped.set_input(&cc, 0, true);
            if cycle == inject_at {
                forced.eval_forced(&cc, q_net, mask);
                flipped.flip_ff(&cc, ff, mask);
                flipped.eval(&cc);
            } else {
                forced.eval(&cc);
                flipped.eval(&cc);
            }
            prop_assert_eq!(
                outputs(&cc, &forced),
                outputs(&cc, &flipped),
                "outputs diverge at cycle {}",
                cycle
            );
            // The full per-net state agrees too, not just the outputs.
            for net in 0..cc.netlist().num_nets() {
                let net = ffr_netlist::NetId::from_index(net);
                prop_assert_eq!(forced.net_word(net), flipped.net_word(net));
            }
            forced.tick(&cc);
            flipped.tick(&cc);
        }
        // Identical packed state at the end: convergence detection sees
        // the two histories as the same scenario.
        let mut a = Vec::new();
        let mut b = Vec::new();
        forced.pack_ff_state(&cc, 0, &mut a);
        flipped.pack_ff_state(&cc, 0, &mut b);
        prop_assert_eq!(a, b);
    }

    /// Forcing a gate-driven net through the split-op-list path: the
    /// forced net reads as the fault-free value XOR `mask`, the
    /// lanes outside `mask` are bit-identical to a plain evaluation on
    /// every net of the circuit (lane independence survives the op-list
    /// split), and a zero mask is exactly `eval`.
    #[test]
    fn eval_forced_split_preserves_unmasked_lanes(
        width in 2usize..7,
        pick in 0usize..64,
        mask in any::<u64>(),
        warmup in 0u64..8,
    ) {
        let cc = circuit(width);
        let nets = cc.comb_output_nets();
        let target = nets[pick % nets.len()];

        let mut fast = SimState::new(&cc);
        for _ in 0..warmup {
            fast.set_input(&cc, 0, true);
            fast.eval(&cc);
            fast.tick(&cc);
        }
        let mut plain = fast.clone();
        let mut zero = fast.clone();

        fast.set_input(&cc, 0, true);
        fast.eval_forced(&cc, target, mask);
        plain.set_input(&cc, 0, true);
        plain.eval(&cc);
        zero.set_input(&cc, 0, true);
        zero.eval_forced(&cc, target, 0);

        // The forced net carries the flipped value.
        prop_assert_eq!(fast.net_word(target), plain.net_word(target) ^ mask);
        // Unmasked lanes are untouched everywhere; a zero mask is a
        // plain eval everywhere.
        for net in 0..cc.netlist().num_nets() {
            let net = ffr_netlist::NetId::from_index(net);
            prop_assert_eq!(
                fast.net_word(net) & !mask,
                plain.net_word(net) & !mask,
                "unmasked lanes disturbed on {}",
                net
            );
            prop_assert_eq!(zero.net_word(net), plain.net_word(net));
        }
    }
}
