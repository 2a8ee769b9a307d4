//! Property tests: the fault-evaluation engine is observationally
//! equivalent to the naive reference oracle.
//!
//! For any injection target (SEU flip-flop; SET on a gate output, a
//! flip-flop Q net or a primary input), any batch of lane times
//! (unsorted, with duplicates) and every cycle, [`FaultEngine`] — which
//! evaluates only live divergence inside the fan-out cone and claims
//! everything else golden — must agree with [`reference::simulate`] —
//! which evaluates the whole circuit from reset — on every watched
//! output, every flip-flop word and the lane diff entering the next
//! cycle.

use ffr_circuits::corpus::CorpusSpec;
use ffr_netlist::{Bus, FfId, NetlistBuilder};
use ffr_sim::reference::{self, Target};
use ffr_sim::{
    CompiledCircuit, EngineState, FaultEngine, GoldenRun, InputFrame, NetJournal, Stimulus,
    WatchList,
};
use proptest::prelude::*;

/// A small sequential design with feedback, cross-register logic and
/// several observable outputs (same shape as `lane_consistency.rs`).
fn circuit(width: usize) -> CompiledCircuit {
    let mut b = NetlistBuilder::new("cone_eq");
    let a = b.input("a", width);
    let en = b.input("en", 1);
    let r1 = b.reg("r1", width);
    let (sum, carry) = b.add(&r1.q(), &a);
    b.connect_en(&r1, &en, &sum).unwrap();
    let r2 = b.reg("r2", width);
    let x = b.xor(&r1.q(), &a);
    b.connect(&r2, &x).unwrap();
    let red = b.reduce_xor(&r2.q());
    b.output("sum", &r1.q());
    b.output("parity", &red);
    b.output("carry", &Bus::single(carry.net(0)));
    CompiledCircuit::compile(b.finish().unwrap()).unwrap()
}

/// Deterministic broadcast stimulus: a pure function of the cycle.
struct MixStimulus {
    width: usize,
    cycles: u64,
}

impl Stimulus for MixStimulus {
    fn num_cycles(&self) -> u64 {
        self.cycles
    }

    fn drive(&self, cycle: u64, frame: &mut InputFrame) {
        let mut x = cycle
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x ^= x >> 29;
        for bit in 0..self.width {
            frame.set(bit, (x >> bit) & 1 == 1);
        }
        frame.set(self.width, (x >> 21) & 1 == 1);
    }
}

/// Input-count-generic deterministic stimulus for arbitrary (corpus)
/// circuits: every input bit is a hash of `(cycle, bit)`.
struct HashStimulus {
    inputs: usize,
    cycles: u64,
}

impl Stimulus for HashStimulus {
    fn num_cycles(&self) -> u64 {
        self.cycles
    }

    fn drive(&self, cycle: u64, frame: &mut InputFrame) {
        for bit in 0..self.inputs {
            let mut x = cycle
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((bit as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
            x ^= x >> 31;
            x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 29;
            frame.set(bit, x & 1 == 1);
        }
    }
}

/// Target `pick` of site kind `kind`: 0 = SEU flip-flop, 1 = gate-output
/// SET, 2 = Q-net SET, 3 = primary-input SET (both source sites). A
/// circuit without sites of the kind falls back to an SEU.
fn target(cc: &CompiledCircuit, kind: usize, pick: usize) -> Target {
    let ff = FfId::from_index(pick % cc.num_ffs());
    let nets = match kind {
        0 => Vec::new(),
        1 => cc.comb_output_nets(),
        2 => vec![cc.netlist().ff_q_net(ff)],
        _ => cc.netlist().primary_inputs().to_vec(),
    };
    match nets.len() {
        0 => Target::Seu(ff),
        n => Target::Set(nets[pick % n]),
    }
}

/// Drive the engine the way a campaign batch does (optionally skipping
/// quiescent spans) and compare everything it claims, cycle by cycle,
/// with the oracle.
fn assert_engine_equals_oracle(
    cc: &CompiledCircuit,
    stim: &impl Stimulus,
    target: Target,
    times: &[u64],
    skip_quiescent: bool,
) {
    let cycles = stim.num_cycles();
    let watch = WatchList::all(cc);
    let golden = GoldenRun::capture(cc, &stim, &watch);
    let netj = NetJournal::capture(cc, &stim);
    let oracle = reference::simulate(cc, &stim, &watch, target, times);

    let cone = match target {
        Target::Seu(ff) => cc.ff_cone(ff),
        Target::Set(net) => cc.net_cone(net),
    };
    let mut engine = FaultEngine::new(cc);
    engine.attach(&cone, *times.iter().min().unwrap());

    for cycle in 0..cycles {
        let next = cycle + 1;
        // Cycles the engine is not driven through — before the first
        // injection, or skipped while Quiescent — it claims all-golden.
        let driven = cycle == engine.cycle();
        if driven {
            let mask = (0..times.len())
                .filter(|&lane| times[lane] == cycle)
                .fold(0u64, |mask, lane| mask | 1 << lane);
            engine.eval(&cone, netj.row(cycle), mask);
        }
        let claimed = |net, golden_word: u64| {
            let live = if driven {
                engine.live_word(&cone, net)
            } else {
                None
            };
            live.unwrap_or(golden_word)
        };
        for (w, &po) in watch.indices().iter().enumerate() {
            assert_eq!(
                claimed(cc.output_net(po), golden.trace.word(w, cycle)),
                oracle.trace.word(w, cycle),
                "output {w} at cycle {cycle}"
            );
        }
        for (ff, _) in cc.netlist().ffs() {
            let q = cc.netlist().ff_q_net(ff);
            let golden_word = (netj.net_bit(cycle, q) as u64).wrapping_neg();
            assert_eq!(
                claimed(q, golden_word),
                oracle.ff_word(cycle, ff),
                "flip-flop {ff} at cycle {cycle}"
            );
        }
        let diff = if driven {
            engine.tick(&cone, (next < cycles).then(|| netj.row(next)))
        } else {
            0
        };
        if next == cycles {
            break;
        }
        assert_eq!(diff, oracle.lane_diff(next), "lane diff entering {next}");
        if driven {
            assert_eq!(
                diff == 0,
                engine.state() == EngineState::Quiescent,
                "quiescence is exactly a zero lane diff (cycle {cycle})"
            );
            if skip_quiescent && diff == 0 {
                let resume = times.iter().copied().filter(|&t| t > cycle).min();
                engine.skip_to(resume.unwrap_or(cycles));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Engine ≡ oracle on the hand-built circuit, for every site kind and
    /// random per-lane injection times.
    #[test]
    fn engine_equals_oracle(
        width in 2usize..6,
        kind in 0usize..4,
        pick in 0usize..64,
        raw_times in proptest::collection::vec(0u64..1000, 1..16),
        cycles in 24u64..48,
        skip_quiescent in any::<bool>(),
    ) {
        let cc = circuit(width);
        let stim = MixStimulus { width, cycles };
        let mut times: Vec<u64> = raw_times.iter().map(|t| t % cycles).collect();
        // Always at least one pair of lanes sharing a cycle.
        times.push(times[0]);
        assert_engine_equals_oracle(&cc, &stim, target(&cc, kind, pick), &times, skip_quiescent);
    }

    /// Corpus-wide conformance: the same equivalence holds over
    /// *arbitrary generated corpus circuits* — `CorpusSpec::sampled` maps
    /// free integers onto every generator family (counters, LFSR
    /// pipelines, ALUs, FIFOs, CRCs, register files, seeded mixes), so
    /// shrinking walks both circuit structure and injection placement.
    #[test]
    fn corpus_engine_equals_oracle(
        family in 0usize..7,
        size_a in any::<usize>(),
        size_b in any::<usize>(),
        structure_seed in any::<u64>(),
        kind in 0usize..4,
        pick in 0usize..64,
        raw_times in proptest::collection::vec(0u64..1000, 1..12),
        cycles in 24u64..40,
        skip_quiescent in any::<bool>(),
    ) {
        let spec = CorpusSpec::sampled(family, size_a, size_b, structure_seed);
        let cc = CompiledCircuit::compile(spec.build()).unwrap();
        let stim = HashStimulus { inputs: cc.num_inputs(), cycles };
        let mut times: Vec<u64> = raw_times.iter().map(|t| t % cycles).collect();
        times.push(times[0]);
        assert_engine_equals_oracle(&cc, &stim, target(&cc, kind, pick), &times, skip_quiescent);
    }
}

/// A full 64-lane batch, every lane struck at a different cycle in
/// descending order: the widest batch shape a campaign submits.
#[test]
fn full_width_batch_equals_oracle() {
    let cc = circuit(4);
    let stim = MixStimulus {
        width: 4,
        cycles: 96,
    };
    let times: Vec<u64> = (0..64).map(|lane| 80 - lane).collect();
    for kind in 0..4 {
        for pick in 0..cc.num_ffs() {
            assert_engine_equals_oracle(&cc, &stim, target(&cc, kind, pick), &times, true);
        }
    }
}
