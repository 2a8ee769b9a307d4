//! Property tests: the campaign layer classifies every injection exactly
//! like the naive reference oracle.
//!
//! The campaign's batch loop (merged injection schedule, cone-restricted
//! [`ffr_sim::FaultEngine`], quiescent-span skipping, convergence early
//! exit) must be an *optimisation*, not an approximation — for both fault
//! models, any injection target and any batch of injection times, the
//! per-class tallies (and therefore every FDR and SET de-rating table
//! built from them) must match judging the traces of
//! [`ffr_sim::reference::simulate`], which evaluates the whole circuit
//! for every cycle from reset, bit for bit.
//!
//! The second half pins the divergence record: the judge is called for
//! exactly the lanes whose watched outputs left golden, and the
//! `last_diff` the batch loop hands it equals the definition — one scan
//! of the traces.

use ffr_circuits::corpus::CorpusSpec;
use ffr_circuits::{Mac10geConfig, MacJudge, MacTestbench, TrafficConfig};
use ffr_fault::{
    sample_injection_times, Campaign, CampaignConfig, FailureClass, FailureJudge, InjectionPoint,
    OutputMismatchJudge,
};
use ffr_netlist::{Bus, FfId, NetId, NetlistBuilder};
use ffr_sim::reference::{self, Target};
use ffr_sim::{CompiledCircuit, InputFrame, LaneView, Stimulus, WatchList};
use proptest::prelude::*;
use std::sync::Mutex;

/// A small sequential design with feedback, cross-register logic and
/// several observable outputs (same shape as the sim crate's
/// `cone_equivalence.rs`).
fn circuit(width: usize) -> CompiledCircuit {
    let mut b = NetlistBuilder::new("cone_cls");
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

/// Every interesting SET target: gate outputs, flip-flop Q nets and
/// primary inputs (driverless source sites).
fn set_targets(cc: &CompiledCircuit) -> Vec<NetId> {
    let mut targets = cc.comb_output_nets();
    targets.extend((0..cc.num_ffs()).map(|i| cc.netlist().ff_q_net(FfId::from_index(i))));
    targets.extend(cc.netlist().primary_inputs().iter().copied());
    targets
}

/// SEU on flip-flop `pick`, or SET on the `pick`-th interesting net.
fn point(cc: &CompiledCircuit, seu: bool, pick: usize) -> InjectionPoint {
    if seu {
        InjectionPoint::Seu(FfId::from_index(pick % cc.num_ffs()))
    } else {
        let nets = set_targets(cc);
        InjectionPoint::Set(nets[pick % nets.len()])
    }
}

/// The oracle side of every comparison: simulate the injections naively
/// (64 per oracle run, like the campaign batches them) and classify each
/// lane's full, never-early-exited trace with the campaign's own judge.
fn oracle_tallies<S: Stimulus + Sync, J: FailureJudge>(
    campaign: &Campaign<'_, S, J>,
    stimulus: &S,
    watch: &WatchList,
    judge: &J,
    point: InjectionPoint,
    times: &[u64],
) -> [usize; FailureClass::ALL.len()] {
    let target = match point {
        InjectionPoint::Seu(ff) => Target::Seu(ff),
        InjectionPoint::Set(net) => Target::Set(net),
    };
    let golden = campaign.golden();
    let golden_view = LaneView::golden(&golden.trace);
    let mut counts = [0usize; FailureClass::ALL.len()];
    for chunk in times.chunks(64) {
        let run = reference::simulate(campaign.circuit(), stimulus, watch, target, chunk);
        for (lane, &t) in chunk.iter().enumerate() {
            let view = LaneView::faulty(&golden.trace, &run.trace, lane, None);
            counts[judge.classify(&golden_view, &view, t).tally_index()] += 1;
        }
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `run_point_times` tallies every failure class identically to the
    /// oracle, for both fault models and arbitrary (unsorted, duplicated,
    /// multi-batch) injection times.
    #[test]
    fn engine_tallies_equal_oracle_tallies(
        width in 2usize..6,
        seu in any::<bool>(),
        pick in 0usize..64,
        raw_times in proptest::collection::vec(0u64..1000, 1..80),
        cycles in 24u64..48,
    ) {
        let cc = circuit(width);
        let stim = MixStimulus { width, cycles };
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let campaign = Campaign::new(&cc, &stim, &watch, &judge);
        let point = point(&cc, seu, pick);
        let times: Vec<u64> = raw_times.iter().map(|t| t % cycles).collect();

        let engine = campaign.run_point_times(point, &times, &CampaignConfig::new(0..cycles));
        let oracle = oracle_tallies(&campaign, &stim, &watch, &judge, point, &times);
        prop_assert_eq!(engine, oracle);
        prop_assert_eq!(
            engine.iter().sum::<usize>(),
            times.len(),
            "every injection classified exactly once"
        );
    }

    /// Corpus-wide conformance: the same tally identity holds over
    /// *arbitrary generated corpus circuits* — `CorpusSpec::sampled` maps
    /// free integers onto every generator family (counters, LFSR
    /// pipelines, ALUs, FIFOs, CRCs, register files, seeded mixes), so
    /// the engine is proven against structures no hand-written testbench
    /// enumerates.
    #[test]
    fn corpus_tallies_equal_oracle_tallies(
        kind in 0usize..7,
        size_a in any::<usize>(),
        size_b in any::<usize>(),
        structure_seed in any::<u64>(),
        seu in any::<bool>(),
        pick in 0usize..64,
        raw_times in proptest::collection::vec(0u64..1000, 1..64),
        cycles in 24u64..40,
    ) {
        let spec = CorpusSpec::sampled(kind, size_a, size_b, structure_seed);
        let cc = CompiledCircuit::compile(spec.build()).unwrap();
        let stim = HashStimulus { inputs: cc.num_inputs(), cycles };
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let campaign = Campaign::new(&cc, &stim, &watch, &judge);
        let point = point(&cc, seu, pick);
        let times: Vec<u64> = raw_times.iter().map(|t| t % cycles).collect();

        let engine = campaign.run_point_times(point, &times, &CampaignConfig::new(0..cycles));
        let oracle = oracle_tallies(&campaign, &stim, &watch, &judge, point, &times);
        prop_assert_eq!(engine, oracle, "tallies for {}", spec.id());
    }
}

/// Whole-plan equivalence: the planned SEU injections of every flip-flop
/// ([`Campaign::run_point`]) tally like the oracle, so any FDR table built
/// from them equals the oracle's.
#[test]
fn fdr_table_equals_oracle_table() {
    let cc = circuit(4);
    let stim = MixStimulus {
        width: 4,
        cycles: 96,
    };
    let watch = WatchList::all(&cc);
    let judge = OutputMismatchJudge::new();
    let campaign = Campaign::new(&cc, &stim, &watch, &judge);
    let config = CampaignConfig::new(8..88).with_injections(48).with_seed(19);
    for (ff, _) in cc.netlist().ffs() {
        let point = InjectionPoint::Seu(ff);
        let times = sample_injection_times(19, point.stream(), 8..88, 48);
        let oracle = oracle_tallies(&campaign, &stim, &watch, &judge, point, &times);
        let name = cc.netlist().ff_name(ff);
        assert_eq!(campaign.run_point(point, &config), oracle, "{name}");
    }
}

/// Whole-plan equivalence for the SET fault model: the planned injections
/// of every interesting net (gate outputs, Q nets, source inputs) tally
/// like the oracle, so any de-rating table built from them equals the
/// oracle's.
#[test]
fn set_table_equals_oracle_table() {
    let cc = circuit(3);
    let stim = MixStimulus {
        width: 3,
        cycles: 72,
    };
    let watch = WatchList::all(&cc);
    let judge = OutputMismatchJudge::new();
    let campaign = Campaign::new(&cc, &stim, &watch, &judge);
    let config = CampaignConfig::new(4..68).with_injections(32).with_seed(23);
    for net in set_targets(&cc) {
        let point = InjectionPoint::Set(net);
        let times = sample_injection_times(23, point.stream(), 4..68, 32);
        let oracle = oracle_tallies(&campaign, &stim, &watch, &judge, point, &times);
        assert_eq!(campaign.run_point(point, &config), oracle, "net {net}");
    }
}

/// Scratch reuse across points and batches leaves no residue: running
/// interleaved SET and SEU points twice through one `PointScratch` (and
/// one `PointRunner` per point) reproduces a fresh run's tallies exactly.
#[test]
fn scratch_reuse_leaves_no_residue() {
    let cc = circuit(3);
    let stim = MixStimulus {
        width: 3,
        cycles: 64,
    };
    let watch = WatchList::all(&cc);
    let judge = OutputMismatchJudge::new();
    let campaign = Campaign::new(&cc, &stim, &watch, &judge);
    let config = CampaignConfig::new(0..64);

    let times: Vec<u64> = (0..64).map(|i| (i * 7) % 64).collect();
    let mut scratch = campaign.point_scratch();
    let sets = set_targets(&cc).into_iter().map(InjectionPoint::Set);
    let seus = (0..cc.num_ffs()).map(|i| InjectionPoint::Seu(FfId::from_index(i)));
    // Alternate the fault models so consecutive batches on the scratch
    // differ in cone, root kind and engine state at exit.
    for point in sets.zip(seus.cycle()).flat_map(|(set, seu)| [set, seu]) {
        let mut runner = campaign.point_runner(point);
        let first = campaign.run_point_times_with(&mut runner, &mut scratch, &times, &config);
        let fresh = campaign.run_point_times(point, &times, &config);
        assert_eq!(first, fresh, "reused scratch diverged for {point:?}");
        let again = campaign.run_point_times_with(&mut runner, &mut scratch, &times, &config);
        assert_eq!(first, again, "second pass diverged for {point:?}");
    }
}

/// State coverage on a real design: over a fixed sample of mac-small
/// flip-flops and combinational nets the campaign matches the oracle
/// (under the packet-level judge), and the `PointRunner` counters prove
/// the sample drove the engine through every transition — points that
/// stayed Frontier-only, points that entered Dense and still
/// re-converged, and points that skipped cone work.
#[test]
fn mac_small_sample_matches_oracle_and_visits_every_engine_state() {
    let (cc, tb, watch, extractor) =
        MacTestbench::setup(Mac10geConfig::small(), &TrafficConfig::small());
    let golden = ffr_sim::GoldenRun::capture(&cc, &tb, &watch);
    let judge = MacJudge::new(extractor, &golden);
    let campaign = Campaign::with_golden(&cc, &tb, &watch, &judge, golden);
    let window = tb.injection_window();
    let config = CampaignConfig::new(window.clone());

    let strided = |n: usize| (0..32).map(move |i| i * n / 32);
    let nets = cc.comb_output_nets();
    let points = strided(cc.num_ffs())
        .map(|i| InjectionPoint::Seu(FfId::from_index(i)))
        .chain(strided(nets.len()).map(|i| InjectionPoint::Set(nets[i])));

    let mut scratch = campaign.point_scratch();
    let (mut frontier_only, mut dense_reconverged, mut skipped_work) = (0, 0, 0);
    for point in points {
        let times = sample_injection_times(2019, point.stream(), window.clone(), 24);
        let mut runner = campaign.point_runner(point);
        let engine = campaign.run_point_times_with(&mut runner, &mut scratch, &times, &config);
        let oracle = oracle_tallies(&campaign, &tb, &watch, &judge, point, &times);
        assert_eq!(engine, oracle, "tallies for {point}");

        let went_dense = runner.frontier_peak() as usize == runner.cone_ops();
        frontier_only += usize::from(!went_dense);
        dense_reconverged += usize::from(went_dense && runner.cycles_saved() > 0);
        skipped_work += usize::from(runner.frontier_ops_skipped() > 0);
    }
    assert!(frontier_only > 0, "no sampled point stayed Frontier-only");
    assert!(
        dense_reconverged > 0,
        "no sampled point entered Dense and re-converged"
    );
    assert!(skipped_work > 0, "no sampled point skipped cone work");
}

/// The definition of [`LaneView::last_diff`], spelled out over the views'
/// bits: the last cycle at which any watched output differs.
fn scan_last_diff(golden: &LaneView<'_>, faulty: &LaneView<'_>) -> Option<u64> {
    (0..golden.num_cycles())
        .rev()
        .find(|&c| (0..golden.width()).any(|w| golden.bit(w, c) != faulty.bit(w, c)))
}

/// Forwards to a real judge and keeps, per call, the `last_diff` the
/// campaign recorded on the view next to the one scanned from the same
/// view's bits.
struct SpyJudge<'j, J> {
    inner: &'j J,
    calls: Mutex<Vec<(Option<u64>, Option<u64>)>>,
}

impl<'j, J: FailureJudge> SpyJudge<'j, J> {
    fn new(inner: &'j J) -> Self {
        SpyJudge {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// The `(recorded, scanned)` pairs since the last take, in call order.
    fn take_calls(&self) -> Vec<(Option<u64>, Option<u64>)> {
        std::mem::take(&mut self.calls.lock().unwrap())
    }
}

impl<J: FailureJudge> FailureJudge for SpyJudge<'_, J> {
    fn classify(&self, golden: &LaneView<'_>, faulty: &LaneView<'_>, t: u64) -> FailureClass {
        let pair = (faulty.last_diff(), scan_last_diff(golden, faulty));
        self.calls.lock().unwrap().push(pair);
        self.inner.classify(golden, faulty, t)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The divergence record is exact, for both fault models, partial
    /// final batches, lanes sharing an injection cycle and any grace
    /// window: the judge is called for exactly the lanes whose oracle
    /// trace ever leaves golden, in lane order, with the scanned
    /// `last_diff`; and `OutputMismatchJudge` on that record tallies like
    /// a bit-by-bit walk of the oracle's traces.
    #[test]
    fn recorded_divergence_equals_scanned_divergence(
        width in 2usize..6,
        seu in any::<bool>(),
        pick in 0usize..64,
        raw_times in proptest::collection::vec(0u64..1000, 1..80),
        cycles in 24u64..48,
        grace in 0u64..6,
    ) {
        let cc = circuit(width);
        let stim = MixStimulus { width, cycles };
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge { grace_cycles: grace };
        let spy = SpyJudge::new(&judge);
        let campaign = Campaign::new(&cc, &stim, &watch, &spy);
        spy.take_calls(); // the contract check of `with_golden`
        let point = point(&cc, seu, pick);
        let target = match point {
            InjectionPoint::Seu(ff) => Target::Seu(ff),
            InjectionPoint::Set(net) => Target::Set(net),
        };
        let times: Vec<u64> = raw_times.iter().map(|t| t % cycles).collect();

        let mut runner = campaign.point_runner(point);
        let mut scratch = campaign.point_scratch();
        let engine = campaign.run_point_times_with(
            &mut runner,
            &mut scratch,
            &times,
            &CampaignConfig::new(0..cycles),
        );
        let calls = spy.take_calls();

        let golden = campaign.golden();
        let golden_view = LaneView::golden(&golden.trace);
        let mut oracle = [0usize; FailureClass::ALL.len()];
        let mut oracle_diffs = Vec::new();
        for chunk in times.chunks(64) {
            let run = reference::simulate(&cc, &stim, &watch, target, chunk);
            for (lane, &t) in chunk.iter().enumerate() {
                let view = LaneView::faulty(&golden.trace, &run.trace, lane, None);
                let last_diff = scan_last_diff(&golden_view, &view);
                let class = if last_diff.is_some_and(|c| c >= t + grace) {
                    FailureClass::OutputMismatch
                } else {
                    FailureClass::Benign
                };
                oracle[class.tally_index()] += 1;
                prop_assert_eq!(view.last_diff(), last_diff);
                oracle_diffs.extend(last_diff);
            }
        }
        prop_assert_eq!(engine, oracle);
        prop_assert_eq!(runner.lanes_diverged(), calls.len() as u64);
        for &(recorded, scanned) in &calls {
            prop_assert_eq!(recorded, scanned);
        }
        let recorded: Vec<u64> = calls.iter().filter_map(|&(recorded, _)| recorded).collect();
        prop_assert_eq!(recorded, oracle_diffs);
    }
}

/// A deviation that falls wholly inside the grace window reaches the
/// judge (the lane diverged) and is still benign: a SET on the net behind
/// the `carry` output is visible in its injection cycle only — nothing
/// latches it.
#[test]
fn deviation_inside_the_grace_window_is_judged_benign() {
    let cc = circuit(4);
    let stim = MixStimulus {
        width: 4,
        cycles: 64,
    };
    let watch = WatchList::all(&cc);
    let carry = cc.output_net(cc.netlist().output_index("carry").unwrap());
    let times: Vec<u64> = (0..40).map(|i| (i * 5) % 64).collect();
    let config = CampaignConfig::new(0..64);
    for (grace, class) in [(0, FailureClass::OutputMismatch), (1, FailureClass::Benign)] {
        let judge = OutputMismatchJudge {
            grace_cycles: grace,
        };
        let campaign = Campaign::new(&cc, &stim, &watch, &judge);
        let mut runner = campaign.point_runner(InjectionPoint::Set(carry));
        let mut scratch = campaign.point_scratch();
        let tallies = campaign.run_point_times_with(&mut runner, &mut scratch, &times, &config);
        assert_eq!(tallies[class.tally_index()], times.len(), "grace {grace}");
        assert_eq!(runner.lanes_diverged(), times.len() as u64);
    }
}

/// Who is called when, on a real design under the packet-level judge:
/// over a mac-small sample (partial 24-lane batches, some going Dense)
/// the tallies match the oracle, which judges every lane, while the
/// campaign's judge is called `lanes_diverged` times — fewer than there
/// are injections — and always with the scanned `last_diff`.
#[test]
fn judge_is_called_only_for_diverged_lanes() {
    let (cc, tb, watch, extractor) =
        MacTestbench::setup(Mac10geConfig::small(), &TrafficConfig::small());
    let golden = ffr_sim::GoldenRun::capture(&cc, &tb, &watch);
    let judge = MacJudge::new(extractor, &golden);
    let spy = SpyJudge::new(&judge);
    let campaign = Campaign::with_golden(&cc, &tb, &watch, &spy, golden);
    spy.take_calls(); // the contract check of `with_golden`
    let window = tb.injection_window();
    let config = CampaignConfig::new(window.clone());

    let strided = |n: usize| (0..12).map(move |i| i * n / 12);
    let nets = cc.comb_output_nets();
    let points = strided(cc.num_ffs())
        .map(|i| InjectionPoint::Seu(FfId::from_index(i)))
        .chain(strided(nets.len()).map(|i| InjectionPoint::Set(nets[i])));

    let mut scratch = campaign.point_scratch();
    let (mut injections, mut diverged, mut dense, mut frontier_only) = (0, 0, 0, 0);
    for point in points {
        let times = sample_injection_times(2019, point.stream(), window.clone(), 24);
        let mut runner = campaign.point_runner(point);
        let engine = campaign.run_point_times_with(&mut runner, &mut scratch, &times, &config);
        let calls = spy.take_calls();
        assert_eq!(runner.lanes_diverged(), calls.len() as u64, "{point}");
        for (recorded, scanned) in calls {
            assert!(recorded.is_some() && recorded == scanned, "{point}");
        }
        let oracle = oracle_tallies(&campaign, &tb, &watch, &spy, point, &times);
        assert_eq!(
            spy.take_calls().len(),
            times.len(),
            "the oracle skips nothing"
        );
        assert_eq!(engine, oracle, "tallies for {point}");

        injections += times.len() as u64;
        diverged += runner.lanes_diverged();
        let went_dense = runner.frontier_peak() as usize == runner.cone_ops();
        dense += usize::from(went_dense);
        frontier_only += usize::from(!went_dense);
    }
    assert!(dense > 0, "no sampled point went Dense");
    assert!(frontier_only > 0, "no sampled point stayed Frontier-only");
    assert!(
        0 < diverged && diverged < injections,
        "{diverged} of {injections} lanes diverged"
    );
}
