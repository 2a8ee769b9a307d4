//! Property tests of the feature matrix the estimation pipeline trains
//! on: one row per flip-flop, no NaN/Inf anywhere (the regression models
//! assert finite training data), and invariance to the order in which
//! flip-flops happen to be enumerated in the netlist.

use ffr_circuits::{components, small};
use ffr_features::{extract_features, extract_structural, FeatureMatrix, FEATURE_NAMES};
use ffr_netlist::{Netlist, NetlistBuilder};
use ffr_sim::{CompiledCircuit, GoldenRun, InputFrame, Stimulus, WatchList};
use proptest::prelude::*;

/// Deterministic stimulus: input `i` follows a fixed bit pattern keyed by
/// the cycle, so dynamic features are reproducible.
struct PatternStim {
    num_inputs: usize,
    cycles: u64,
}

impl Stimulus for PatternStim {
    fn num_cycles(&self) -> u64 {
        self.cycles
    }

    fn drive(&self, cycle: u64, frame: &mut InputFrame) {
        for i in 0..self.num_inputs {
            frame.set(i, (cycle >> (i % 5)) & 1 == 1);
        }
    }
}

fn full_matrix(netlist: Netlist) -> (CompiledCircuit, FeatureMatrix) {
    let cc = CompiledCircuit::compile(netlist).expect("test circuit compiles");
    let stim = PatternStim {
        num_inputs: cc.num_inputs(),
        cycles: 64,
    };
    let run = GoldenRun::capture(&cc, &stim, &WatchList::all(&cc));
    let m = extract_features(&cc, &run.activity);
    (cc, m)
}

/// Two independent counters; `swap` flips the declaration order of the
/// two register groups (and nothing else), permuting FF enumeration.
fn two_counter_circuit(wa: usize, wb: usize, swap: bool) -> Netlist {
    let mut b = NetlistBuilder::new("pair");
    let en_a = b.input("en_a", 1);
    let en_b = b.input("en_b", 1);
    let (qa, qb) = if swap {
        let cb = components::counter(&mut b, "b_count", wb, &en_b, None);
        let ca = components::counter(&mut b, "a_count", wa, &en_a, None);
        (ca.q(), cb.q())
    } else {
        let ca = components::counter(&mut b, "a_count", wa, &en_a, None);
        let cb = components::counter(&mut b, "b_count", wb, &en_b, None);
        (ca.q(), cb.q())
    };
    b.output("a", &qa);
    b.output("b", &qb);
    b.finish().expect("pair circuit is well formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every small library circuit yields exactly one finite feature row
    /// per flip-flop, for both the structural-only and the full extractor.
    #[test]
    fn one_finite_row_per_ff(counter_w in 2usize..9, alu_w in 2usize..7, depth in 1usize..5) {
        for netlist in [
            small::counter_circuit(counter_w),
            small::lfsr_pipeline(8, depth),
            small::alu_circuit(alu_w),
            small::traffic_light(),
        ] {
            let structural = extract_structural(
                &CompiledCircuit::compile(netlist.clone()).expect("compiles"),
            );
            prop_assert!(structural.is_finite());

            let (cc, m) = full_matrix(netlist);
            prop_assert_eq!(m.num_rows(), cc.num_ffs(), "one row per flip-flop");
            prop_assert_eq!(m.num_cols(), FEATURE_NAMES.len());
            prop_assert!(m.is_finite(), "NaN/Inf in feature matrix");
            // Row names are exactly the circuit's flip-flop names, in
            // FfId order — the pairing the FDR table relies on.
            for (i, name) in m.ff_names().iter().enumerate() {
                prop_assert_eq!(m.row_index(name), Some(i), "duplicate or misplaced row");
            }
        }
    }

    /// A flip-flop's feature vector depends on the circuit, not on the
    /// position the flip-flop happens to occupy in the netlist's
    /// enumeration: swapping the declaration order of two independent
    /// register groups permutes the rows but changes no row's values.
    #[test]
    fn features_are_invariant_to_ff_enumeration_order(wa in 2usize..7, wb in 2usize..7) {
        let (_, normal) = full_matrix(two_counter_circuit(wa, wb, false));
        let (_, swapped) = full_matrix(two_counter_circuit(wa, wb, true));
        prop_assert_eq!(normal.num_rows(), swapped.num_rows());
        // The enumeration genuinely differs…
        prop_assert!(
            normal.ff_names() != swapped.ff_names(),
            "declaration swap must permute FF order for this test to bite"
        );
        // …but each named flip-flop keeps the exact same feature vector.
        for (i, name) in normal.ff_names().iter().enumerate() {
            let j = swapped
                .row_index(name)
                .expect("same flip-flops in both variants");
            prop_assert_eq!(
                normal.row(i),
                swapped.row(j),
                "feature row of `{}` changed with enumeration order",
                name
            );
        }
    }
}
