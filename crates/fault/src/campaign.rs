//! The unified fault-injection campaign layer.
//!
//! One batch-simulation loop serves both fault models behind
//! [`InjectionPoint`]: SEUs flip a flip-flop's stored value before the
//! combinational evaluation of the injection cycle; SETs XOR-force a
//! combinational net for exactly that evaluation. The difference is fully
//! encoded in the point's fan-out [`Cone`], so the loop hands the
//! [`FaultEngine`] one injection mask per cycle. 64-lane fault batching,
//! the merged injection schedule and the convergence early-exit are
//! shared; how the faulty state is represented and evaluated is the
//! engine's business alone.
//!
//! The loop also keeps the batch's *divergence record* — which lanes'
//! watched outputs ever left the golden trace, and the last cycle each
//! did — so only diverged lanes are judged: a clear lane's view is bit
//! for bit the golden view, which the [`FailureJudge`] contract makes
//! `Benign`.

use crate::judge::FailureJudge;
use crate::model::{FailureClass, InjectionPoint};
use crate::sampling::sample_injection_times;
use ffr_netlist::NetId;
use ffr_sim::{
    CompiledCircuit, Cone, FaultEngine, GoldenRun, LaneView, NetJournal, OutputTrace, Stimulus,
    WatchList,
};
use std::sync::OnceLock;

/// Configuration of a statistical SEU campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of injections per flip-flop (the paper uses 170).
    pub injections_per_ff: usize,
    /// Cycle window in which faults are injected — the paper injects
    /// "during the active phase of the simulation, when packets are sent
    /// and received".
    pub window: std::ops::Range<u64>,
    /// Master seed; combined with the flip-flop index so every flip-flop
    /// has an independent, reproducible injection plan.
    pub seed: u64,
}

impl CampaignConfig {
    /// Paper-like defaults: 170 injections, seed 0; the window must
    /// still be set to the testbench's active phase.
    pub fn new(window: std::ops::Range<u64>) -> CampaignConfig {
        CampaignConfig {
            injections_per_ff: 170,
            window,
            seed: 0,
        }
    }

    /// Builder-style override of the injection count.
    pub fn with_injections(mut self, n: usize) -> CampaignConfig {
        self.injections_per_ff = n;
        self
    }

    /// Builder-style override of the seed.
    pub fn with_seed(mut self, seed: u64) -> CampaignConfig {
        self.seed = seed;
        self
    }
}

/// One injection point compiled for repeated batch simulation: its
/// fan-out [`Cone`] and the watched outputs inside it. Built once per
/// point ([`Campaign::point_runner`]) and reused across every policy
/// batch, so the cone closure is never recomputed inside the injection
/// loop.
pub struct PointRunner {
    cone: Cone,
    /// `(watch offset, net)` of every watched output that can ever
    /// deviate from golden; all others keep their golden trace rows.
    watched_in_cone: Vec<(usize, NetId)>,
    cycles_saved: u64,
    frontier_ops_evaluated: u64,
    frontier_cycles: u64,
    frontier_peak: u32,
    lanes_diverged: u64,
}

impl PointRunner {
    /// Number of combinational ops in the point's fan-out cone.
    pub fn cone_ops(&self) -> usize {
        self.cone.num_ops()
    }

    /// Number of flip-flops in the point's fan-out cone.
    pub fn cone_ffs(&self) -> usize {
        self.cone.num_ffs()
    }

    /// Number of boundary nets broadcast per simulated cycle.
    pub fn cone_boundary_nets(&self) -> usize {
        self.cone.num_boundary_nets()
    }

    /// Total cycles skipped by the convergence early-exit across every
    /// batch this runner has simulated.
    pub fn cycles_saved(&self) -> u64 {
        self.cycles_saved
    }

    /// Cone ops the engine actually evaluated across every batch this
    /// runner has simulated (a Dense-state cycle counts the whole cone).
    pub fn frontier_ops_evaluated(&self) -> u64 {
        self.frontier_ops_evaluated
    }

    /// Cone-op evaluations the engine skipped relative to evaluating
    /// every cone op in every cycle from the first injection to the
    /// batch's exit.
    pub fn frontier_ops_skipped(&self) -> u64 {
        (self.frontier_cycles * self.cone.num_ops() as u64)
            .saturating_sub(self.frontier_ops_evaluated)
    }

    /// Largest number of cone ops evaluated in any single cycle
    /// (worst-case divergence width; the cone size once the engine went
    /// Dense).
    pub fn frontier_peak(&self) -> u32 {
        self.frontier_peak
    }

    /// Injections whose watched outputs left the golden trace at some
    /// cycle, across every batch this runner has simulated — exactly the
    /// lanes the judge was called for; all others are benign by the
    /// [`FailureJudge`] contract.
    pub fn lanes_diverged(&self) -> u64 {
        self.lanes_diverged
    }
}

/// Reusable per-thread simulation buffers: engine, output trace,
/// convergence bookkeeping and the injection schedule. One scratch
/// ([`Campaign::point_scratch`]) serves any number of points and batches
/// — the batch loop allocates nothing.
pub struct PointScratch {
    engine: FaultEngine,
    trace: OutputTrace,
    converged_at: Vec<Option<u64>>,
    /// Per-batch `(cycle, lane mask)` schedule, sorted by cycle with
    /// duplicate cycles merged — replaces a per-cycle rescan of every
    /// lane's injection time.
    schedule: Vec<(u64, u64)>,
    /// Lanes of the last batch whose watched outputs differed from golden
    /// at some cycle.
    differed: u64,
    /// Per lane with a `differed` bit, the last cycle at which a watched
    /// output differed from golden (stale otherwise).
    last_diff: [u64; 64],
}

/// A prepared fault-injection campaign: compiled circuit, stimulus, watch
/// list, judge, and the golden reference run.
///
/// The campaign object is immutable and `Sync`: it runs one injection
/// point at a time ([`Campaign::run_point`], or the resumable
/// [`Campaign::run_point_times_with`]), and a caller may drive any number
/// of points from any number of threads.
pub struct Campaign<'a, S, J> {
    cc: &'a CompiledCircuit,
    stimulus: &'a S,
    watch: &'a WatchList,
    judge: &'a J,
    golden: GoldenRun,
    /// Golden per-cycle all-nets journal, captured lazily on the first
    /// batch (one extra full-speed golden replay, amortised over the
    /// whole campaign) and shared by every worker thread.
    net_journal: OnceLock<NetJournal>,
}

impl<'a, S, J> Campaign<'a, S, J>
where
    S: Stimulus + Sync,
    J: FailureJudge,
{
    /// Capture the golden run and prepare the campaign.
    pub fn new(
        cc: &'a CompiledCircuit,
        stimulus: &'a S,
        watch: &'a WatchList,
        judge: &'a J,
    ) -> Campaign<'a, S, J> {
        let golden = GoldenRun::capture(cc, stimulus, watch);
        Campaign::with_golden(cc, stimulus, watch, judge, golden)
    }

    /// Prepare the campaign around an already-captured golden run (e.g. one
    /// served from an artifact store instead of re-simulated).
    ///
    /// # Panics
    ///
    /// Panics unless the golden run [fits](GoldenRun::fits) this circuit,
    /// stimulus and watch list: a trace over every testbench cycle and
    /// watched output, activity over every flip-flop. A caller serving it
    /// from a store checks the same predicate first and recaptures on a
    /// mismatch.
    pub fn with_golden(
        cc: &'a CompiledCircuit,
        stimulus: &'a S,
        watch: &'a WatchList,
        judge: &'a J,
        golden: GoldenRun,
    ) -> Campaign<'a, S, J> {
        assert!(
            golden.fits(cc, stimulus, watch),
            "golden run was captured for a different circuit, testbench or watch list"
        );
        let golden_view = LaneView::golden(&golden.trace);
        assert_eq!(
            judge.classify(&golden_view, &golden_view, 0),
            FailureClass::Benign,
            "judge breaks the FailureJudge contract: a scenario equal to the golden run must be Benign"
        );
        Campaign {
            cc,
            stimulus,
            watch,
            judge,
            golden,
            net_journal: OnceLock::new(),
        }
    }

    /// The golden reference run (reused for feature extraction).
    pub fn golden(&self) -> &GoldenRun {
        &self.golden
    }

    /// The golden all-nets journal the engine simulates against,
    /// capturing it on first use.
    pub fn net_journal(&self) -> &NetJournal {
        self.net_journal
            .get_or_init(|| NetJournal::capture(self.cc, &self.stimulus))
    }

    /// The compiled circuit under test.
    pub fn circuit(&self) -> &CompiledCircuit {
        self.cc
    }

    /// Inject the planned faults for one injection point of either fault
    /// model and return the per-class tallies (indexed like
    /// [`FailureClass::ALL`]). The plan is [`sample_injection_times`] on
    /// [`InjectionPoint::stream`] — the same plan a campaign runner slices
    /// into policy batches, so a fixed-budget run reproduces these tallies.
    ///
    /// [`sample_injection_times`]: crate::sample_injection_times
    pub fn run_point(
        &self,
        point: InjectionPoint,
        config: &CampaignConfig,
    ) -> [usize; FailureClass::ALL.len()] {
        let times = sample_injection_times(
            config.seed,
            point.stream(),
            config.window.clone(),
            config.injections_per_ff,
        );
        self.run_point_times(point, &times, config)
    }

    /// Inject exactly the given fault times into one injection point and
    /// return the per-class tallies (indexed like [`FailureClass::ALL`]).
    ///
    /// This is the resumable unit of campaign work for both fault models:
    /// a caller that owns the full injection plan (from
    /// [`sample_injection_times`] on [`InjectionPoint::stream`]) can run
    /// any slice of it, persist the accumulated tallies, and continue
    /// later — the tallies of two slices simply add. Classification
    /// batches the times into 64-lane groups internally, so slicing at
    /// multiples of 64 reproduces the one-shot run exactly; tallies are
    /// order-insensitive, so any slicing yields the same totals.
    ///
    /// [`sample_injection_times`]: crate::sample_injection_times
    pub fn run_point_times(
        &self,
        point: InjectionPoint,
        times: &[u64],
        config: &CampaignConfig,
    ) -> [usize; FailureClass::ALL.len()] {
        let mut runner = self.point_runner(point);
        let mut scratch = self.point_scratch();
        self.run_point_times_with(&mut runner, &mut scratch, times, config)
    }

    /// Compile an injection point for repeated batch simulation: extract
    /// its fan-out cone and find the watched outputs inside it.
    pub fn point_runner(&self, point: InjectionPoint) -> PointRunner {
        let cone = match point {
            InjectionPoint::Seu(ff) => self.cc.ff_cone(ff),
            InjectionPoint::Set(net) => self.cc.net_cone(net),
        };
        let watched_in_cone = self
            .watch
            .indices()
            .iter()
            .map(|&po| self.cc.output_net(po))
            .enumerate()
            .filter(|&(_, net)| cone.may_differ(net))
            .collect();
        PointRunner {
            cone,
            watched_in_cone,
            cycles_saved: 0,
            frontier_ops_evaluated: 0,
            frontier_cycles: 0,
            frontier_peak: 0,
            lanes_diverged: 0,
        }
    }

    /// Allocate the reusable per-thread simulation buffers once; hand the
    /// same scratch to every [`Campaign::run_point_times_with`] call on
    /// the thread.
    pub fn point_scratch(&self) -> PointScratch {
        PointScratch {
            engine: FaultEngine::new(self.cc),
            trace: OutputTrace::new(0, 0, 0),
            converged_at: Vec::new(),
            schedule: Vec::new(),
            differed: 0,
            last_diff: [0; 64],
        }
    }

    /// [`Campaign::run_point_times`] against a pre-compiled
    /// [`PointRunner`] and reusable [`PointScratch`] — the zero-allocation
    /// resumable unit of campaign work. Tallies are identical to the
    /// one-shot entry point. There is one evaluation path, so nothing of
    /// `_config` is read here; the parameter keeps the signature callers
    /// are written against.
    ///
    /// # Panics
    ///
    /// Panics if an injection time lies at or beyond the end of the
    /// testbench: such a fault could never strike and would be tallied
    /// benign.
    pub fn run_point_times_with(
        &self,
        runner: &mut PointRunner,
        scratch: &mut PointScratch,
        times: &[u64],
        _config: &CampaignConfig,
    ) -> [usize; FailureClass::ALL.len()] {
        let mut class_counts = [0usize; FailureClass::ALL.len()];
        for chunk in times.chunks(64) {
            let latest = *chunk.iter().max().expect("chunks are non-empty");
            assert!(
                latest < self.stimulus.num_cycles(),
                "injection at cycle {latest} beyond testbench end"
            );
            self.simulate_batch_into(runner, scratch, chunk);
            // Only diverged lanes are judged: the view of a clear lane is
            // bit for bit the golden view, Benign by the judge contract.
            let diverged = scratch.differed.count_ones() as usize;
            class_counts[FailureClass::Benign.tally_index()] += chunk.len() - diverged;
            let golden_view = LaneView::golden(&self.golden.trace);
            for (lane, &inject_cycle) in chunk.iter().enumerate() {
                if scratch.differed & (1u64 << lane) == 0 {
                    continue;
                }
                let view = LaneView::faulty(
                    &self.golden.trace,
                    &scratch.trace,
                    lane,
                    scratch.converged_at[lane],
                )
                .with_last_diff(scratch.last_diff[lane]);
                let class = self.judge.classify(&golden_view, &view, inject_cycle);
                class_counts[class.tally_index()] += 1;
            }
        }
        class_counts
    }

    /// Simulate up to 64 injections into one point (one per lane) into
    /// `scratch`: the faulty output trace and, per lane, the cycle from
    /// which the state provably equals golden again (`None` if it never
    /// re-converged).
    ///
    /// Nothing is loaded or replayed up front: the faulty trace starts as
    /// a bulk copy of the golden trace, the engine starts Quiescent at
    /// the first injection, and only rows where a watched output is live
    /// are overwritten. Quiescent spans are skipped outright — their trace
    /// is the golden trace by construction. Each overwrite is compared
    /// with the golden word it replaces, which yields the batch's
    /// divergence record (`differed`, `last_diff`) for free.
    fn simulate_batch_into(
        &self,
        runner: &mut PointRunner,
        scratch: &mut PointScratch,
        times: &[u64],
    ) {
        debug_assert!(!times.is_empty() && times.len() <= 64);
        let end = self.stimulus.num_cycles();
        let journal = self.net_journal();
        let cone = &runner.cone;
        let PointScratch {
            engine,
            trace,
            converged_at,
            schedule,
            differed,
            last_diff,
        } = scratch;
        *differed = 0;
        converged_at.clear();
        converged_at.resize(times.len(), None);

        // Injection schedule: sort the lane times once and merge lanes
        // sharing a cycle, instead of rescanning all lane times every
        // cycle of the loop.
        schedule.clear();
        for (lane, &t) in times.iter().enumerate() {
            schedule.push((t, 1u64 << lane));
        }
        schedule.sort_unstable_by_key(|&(t, _)| t);
        let mut merged = 0usize;
        for i in 1..schedule.len() {
            if schedule[i].0 == schedule[merged].0 {
                let mask = schedule[i].1;
                schedule[merged].1 |= mask;
            } else {
                merged += 1;
                schedule[merged] = schedule[i];
            }
        }
        schedule.truncate(merged + 1);
        let mut next_fault = 0usize;

        let active: u64 = if times.len() == 64 {
            !0
        } else {
            (1u64 << times.len()) - 1
        };
        let mut pending = active; // lanes whose fault has not happened yet
        let mut converged = 0u64; // lanes whose state returned to golden

        let t0 = schedule[0].0;
        trace.reset_from(&self.golden.trace, t0);
        engine.attach(cone, t0);
        // The cycle the batch stops simulating at: `end`, or earlier once
        // every lane has re-converged.
        let mut exit = end;
        while engine.cycle() < end {
            let cycle = engine.cycle();
            let mut inject_mask = 0u64;
            if next_fault < schedule.len() && schedule[next_fault].0 == cycle {
                inject_mask = schedule[next_fault].1;
                next_fault += 1;
                pending &= !inject_mask;
            }
            engine.eval(cone, journal.row(cycle), inject_mask);
            // The row still holds the golden copy from `reset_from`; the
            // golden run is lane 0 of each word.
            let trace_row = trace.row_mut(cycle);
            let mut row_diff = 0u64;
            for &(w, net) in &runner.watched_in_cone {
                if let Some(word) = engine.live_word(cone, net) {
                    row_diff |= word ^ (trace_row[w] & 1).wrapping_neg();
                    trace_row[w] = word;
                }
            }
            row_diff &= active;
            *differed |= row_diff;
            while row_diff != 0 {
                last_diff[row_diff.trailing_zeros() as usize] = cycle;
                row_diff &= row_diff - 1;
            }
            let next = cycle + 1;
            let diff = engine.tick(cone, (next < end).then(|| journal.row(next)));

            // A lane whose state has returned to golden after its fault
            // can never diverge again (the stimulus is shared); once all
            // have, the remaining cycles are provably golden.
            if pending == 0 && next < end {
                let newly = active & !diff & !converged;
                if newly != 0 {
                    for (lane, at) in converged_at.iter_mut().enumerate() {
                        if newly & (1u64 << lane) != 0 {
                            *at = Some(next);
                        }
                    }
                    converged |= newly;
                }
                if converged == active {
                    exit = next;
                    break;
                }
            }
            // Every lane equals golden but faults are still pending:
            // nothing can change before the next scheduled injection.
            if diff == 0 && next < end {
                engine.skip_to(schedule[next_fault].0);
            }
        }
        runner.cycles_saved += end - exit;
        runner.frontier_cycles += exit - t0;
        runner.frontier_ops_evaluated += engine.ops_evaluated();
        runner.frontier_peak = runner.frontier_peak.max(engine.peak());
        runner.lanes_diverged += u64::from(differed.count_ones());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::judge::OutputMismatchJudge;
    use crate::result::FfCampaignResult;
    use ffr_netlist::{FfId, NetlistBuilder};
    use ffr_sim::InputFrame;

    /// A circuit with a sharply bimodal FDR population: a live data path
    /// (every upset visible) and a dead register (never visible).
    fn probe_circuit() -> CompiledCircuit {
        let mut b = NetlistBuilder::new("probe");
        let en = b.input("en", 1);
        // Live path: counter driving outputs.
        let live = b.reg("live", 4);
        let next = b.inc(&live.q());
        b.connect_en(&live, &en, &next).unwrap();
        b.output("value", &live.q());
        // Dead register: toggles but drives nothing observable.
        let dead = b.reg("dead", 4);
        let dnext = b.inc(&dead.q());
        b.connect(&dead, &dnext).unwrap();
        // Keep `dead` from being optimised away conceptually: reduce it
        // into a net that is ANDed with constant 0 before the output.
        let red = b.reduce_xor(&dead.q());
        let zero = b.zero_bit();
        let masked = b.and(&red, &zero);
        let out = b.or(&live.q().bit(0), &masked);
        b.output("mixed", &out);
        CompiledCircuit::compile(b.finish().unwrap()).unwrap()
    }

    struct AlwaysOn;

    impl Stimulus for AlwaysOn {
        fn num_cycles(&self) -> u64 {
            120
        }

        fn drive(&self, _cycle: u64, frame: &mut InputFrame) {
            frame.set(0, true);
        }
    }

    #[test]
    fn live_ffs_fail_dead_ffs_do_not() {
        let cc = probe_circuit();
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let campaign = Campaign::new(&cc, &AlwaysOn, &watch, &judge);
        let config = CampaignConfig::new(10..100)
            .with_injections(24)
            .with_seed(3);
        let netlist = cc.netlist();
        for (ff, _) in netlist.ffs() {
            let name = netlist.ff_name(ff).to_string();
            let fdr =
                FfCampaignResult::new(ff, campaign.run_point(InjectionPoint::Seu(ff), &config))
                    .fdr();
            if name.starts_with("live") {
                assert!(
                    fdr > 0.9,
                    "live FF {name} should almost always fail, fdr={fdr}"
                );
            } else if name.starts_with("dead") {
                assert_eq!(fdr, 0.0, "dead FF {name} must be benign");
            }
        }
    }

    /// The engine exits a batch early once every lane has re-converged
    /// and skips quiescent spans; the reference oracle simulates every
    /// cycle of the whole circuit from reset. Tallies must agree.
    #[test]
    fn tallies_match_the_reference_oracle() {
        let cc = probe_circuit();
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let campaign = Campaign::new(&cc, &AlwaysOn, &watch, &judge);
        let config = CampaignConfig::new(10..100);
        let times = sample_injection_times(11, 0, 10..100, 32);
        let golden_view = LaneView::golden(&campaign.golden().trace);
        for (ff, _) in cc.netlist().ffs() {
            let oracle = ffr_sim::reference::simulate(
                &cc,
                &AlwaysOn,
                &watch,
                ffr_sim::reference::Target::Seu(ff),
                &times,
            );
            let mut expected = [0usize; FailureClass::ALL.len()];
            for (lane, &t) in times.iter().enumerate() {
                let view = LaneView::faulty(&campaign.golden().trace, &oracle.trace, lane, None);
                expected[judge.classify(&golden_view, &view, t).tally_index()] += 1;
            }
            assert_eq!(
                campaign.run_point_times(InjectionPoint::Seu(ff), &times, &config),
                expected,
                "{}",
                cc.netlist().ff_name(ff)
            );
        }
    }

    /// A lane timed beyond the testbench could never be struck; it must
    /// not be tallied benign, even when another lane of the batch is in
    /// range.
    #[test]
    #[should_panic(expected = "beyond testbench end")]
    fn injection_beyond_testbench_end_is_rejected() {
        let cc = probe_circuit();
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let campaign = Campaign::new(&cc, &AlwaysOn, &watch, &judge);
        let config = CampaignConfig::new(10..100);
        campaign.run_point_times(
            InjectionPoint::Seu(FfId::from_index(0)),
            &[5, 120 + 100],
            &config,
        );
    }

    /// Skipping the judge for lanes that never left golden is only sound
    /// for a judge that calls the golden run benign; any other judge is
    /// refused before a single injection.
    #[test]
    #[should_panic(expected = "FailureJudge contract")]
    fn judge_failing_the_golden_run_is_rejected() {
        struct AlwaysFails;
        impl FailureJudge for AlwaysFails {
            fn classify(&self, _: &LaneView<'_>, _: &LaneView<'_>, _: u64) -> FailureClass {
                FailureClass::OutputMismatch
            }
        }
        let cc = probe_circuit();
        let watch = WatchList::all(&cc);
        Campaign::new(&cc, &AlwaysOn, &watch, &AlwaysFails);
    }

    #[test]
    fn injection_plans_are_reproducible_across_campaigns() {
        let cc = probe_circuit();
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let first = Campaign::new(&cc, &AlwaysOn, &watch, &judge);
        let second = Campaign::new(&cc, &AlwaysOn, &watch, &judge);
        let config = CampaignConfig::new(10..100)
            .with_injections(16)
            .with_seed(5);
        for (ff, _) in cc.netlist().ffs() {
            let point = InjectionPoint::Seu(ff);
            assert_eq!(
                first.run_point(point, &config),
                second.run_point(point, &config)
            );
        }
    }
}
