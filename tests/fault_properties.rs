//! Property-based and invariant tests of the fault-injection engine
//! against the bit-parallel simulator.

use ffr_fault::{
    Campaign, CampaignConfig, FailureClass, FailureJudge, FfCampaignResult, InjectionPoint,
    OutputMismatchJudge,
};
use ffr_netlist::{FfId, NetlistBuilder};
use ffr_sim::reference::{self, Target};
use ffr_sim::{CompiledCircuit, GoldenRun, InputFrame, LaneView, Stimulus, WatchList};
use proptest::prelude::*;

struct AlwaysOn(u64);

impl Stimulus for AlwaysOn {
    fn num_cycles(&self) -> u64 {
        self.0
    }

    fn drive(&self, _c: u64, f: &mut InputFrame) {
        f.set(0, true);
    }
}

/// FDR of one flip-flop under `config`'s planned injections.
fn seu_fdr<S: Stimulus + Sync, J: FailureJudge>(
    campaign: &Campaign<'_, S, J>,
    ff: FfId,
    config: &CampaignConfig,
) -> f64 {
    FfCampaignResult::new(ff, campaign.run_point(InjectionPoint::Seu(ff), config)).fdr()
}

fn lfsr_circuit() -> CompiledCircuit {
    CompiledCircuit::compile(ffr_circuits::small::lfsr_pipeline(8, 3)).unwrap()
}

#[test]
fn every_lfsr_ff_is_critical() {
    // An LFSR with a full-width output has no masking at all: every SEU in
    // the LFSR register permanently shifts the sequence, every SEU in the
    // pipeline corrupts three output cycles.
    let cc = lfsr_circuit();
    let watch = WatchList::all(&cc);
    let judge = OutputMismatchJudge::new();
    let stim = AlwaysOn(120);
    let campaign = Campaign::new(&cc, &stim, &watch, &judge);
    let config = CampaignConfig::new(5..100).with_injections(12).with_seed(3);
    for (ff, _) in cc.netlist().ffs() {
        assert_eq!(
            seu_fdr(&campaign, ff, &config),
            1.0,
            "{} must always fail",
            cc.netlist().ff_name(ff)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The campaign engine with 64-lane batching, cone restriction and
    /// early exit must agree with the naive whole-circuit reference
    /// oracle, judged one lane per injection.
    #[test]
    fn batched_campaign_equals_naive_simulation(
        ff_index in 0usize..8,
        seed in any::<u64>(),
    ) {
        // Small circuit: 4-bit counter + 4-bit dead register.
        let mut b = NetlistBuilder::new("p");
        let en = b.input("en", 1);
        let live = b.reg("live", 4);
        let next = b.inc(&live.q());
        b.connect_en(&live, &en, &next).unwrap();
        b.output("v", &live.q());
        let dead = b.reg("dead", 4);
        let dnext = b.inc(&dead.q());
        b.connect(&dead, &dnext).unwrap();
        let red = b.reduce_xor(&dead.q());
        let zero = b.zero_bit();
        let masked = b.and(&red, &zero);
        b.output("m", &masked);
        let cc = CompiledCircuit::compile(b.finish().unwrap()).unwrap();

        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let stim = AlwaysOn(60);
        let campaign = Campaign::new(&cc, &stim, &watch, &judge);
        let config = CampaignConfig::new(5..55).with_injections(20).with_seed(seed);
        let ff = FfId::from_index(ff_index);
        let engine = FfCampaignResult::new(ff, campaign.run_point(InjectionPoint::Seu(ff), &config));

        // Naive reference: the shared oracle, one lane per injection time.
        let times = ffr_fault::sample_injection_times(seed, ff_index as u64, 5..55, 20);
        let golden = GoldenRun::capture(&cc, &stim, &watch);
        let oracle = reference::simulate(&cc, &stim, &watch, Target::Seu(ff), &times);
        let g = LaneView::golden(&golden.trace);
        let naive_failures = times
            .iter()
            .enumerate()
            .filter(|&(lane, &t)| {
                let f = LaneView::faulty(&golden.trace, &oracle.trace, lane, None);
                judge.classify(&g, &f, t) != FailureClass::Benign
            })
            .count();
        prop_assert_eq!(engine.failures(), naive_failures);
    }

    /// FDR is monotone in observability: a fully observed register cannot
    /// have a lower FDR than the same register with masked outputs.
    #[test]
    fn observability_monotonicity(width in 2usize..6, seed in any::<u64>()) {
        let build = |observed_bits: usize| {
            let mut b = NetlistBuilder::new("obs");
            let en = b.input("en", 1);
            let r = b.reg("r", width);
            let next = b.inc(&r.q());
            b.connect_en(&r, &en, &next).unwrap();
            b.output("v", &r.q().slice(0..observed_bits));
            CompiledCircuit::compile(b.finish().unwrap()).unwrap()
        };
        let full = build(width);
        let partial = build(1);
        let stim = AlwaysOn(50);
        let judge = OutputMismatchJudge::new();
        let config = CampaignConfig::new(5..45).with_injections(16).with_seed(seed);
        let wf = WatchList::all(&full);
        let wp = WatchList::all(&partial);
        let cf = Campaign::new(&full, &stim, &wf, &judge);
        let cp = Campaign::new(&partial, &stim, &wp, &judge);
        for i in 0..width {
            let ff = FfId::from_index(i);
            let (f, p) = (seu_fdr(&cf, ff, &config), seu_fdr(&cp, ff, &config));
            prop_assert!(f >= p, "bit {i}: full {f} < partial {p}");
        }
    }
}

#[test]
fn set_derating_never_exceeds_seu_on_latch_input() {
    // A SET on the D input only matters when latched; an SEU on the same
    // flip-flop always lands. So SET derating <= SEU derating there.
    let mut b = NetlistBuilder::new("sd");
    let en = b.input("en", 1);
    let r = b.reg("r", 4);
    let next = b.inc(&r.q());
    b.connect_en(&r, &en, &next).unwrap();
    b.output("v", &r.q());
    let d_net = b.gate(ffr_netlist::CellKind::Buf, &[next.net(0)]);
    let buf_bus = ffr_netlist::Bus::single(d_net);
    b.output("probe", &buf_bus);
    let cc = CompiledCircuit::compile(b.finish().unwrap()).unwrap();

    let stim = AlwaysOn(80);
    let watch = WatchList::by_names(&cc, &["v[0]", "v[1]", "v[2]", "v[3]"]);
    let judge = OutputMismatchJudge::new();
    let times: Vec<u64> = (10..60).collect();

    let campaign = Campaign::new(&cc, &stim, &watch, &judge);
    let config = CampaignConfig::new(10..60).with_injections(50).with_seed(1);
    let seu = seu_fdr(&campaign, FfId::from_index(0), &config);

    // Same unified engine, SET fault model, explicit per-cycle plan.
    let d = cc.netlist().ff_d_net(FfId::from_index(0));
    let counts = campaign.run_point_times(ffr_fault::InjectionPoint::Set(d), &times, &config);
    let set = ffr_fault::NetSetResult::new(d, counts);

    assert!(
        set.derating() <= seu + 0.2,
        "SET {} should not exceed SEU {seu} by much",
        set.derating()
    );
}
