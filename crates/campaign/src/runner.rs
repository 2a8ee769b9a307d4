//! The checkpointed campaign runner, generic over work distribution.
//!
//! Injection points (flip-flops for SEU campaigns, combinational nets for
//! SET campaigns) are claimed by worker threads in chunks from a
//! [`WorkSource`] — the in-memory work-stealing cursor of
//! [`run_resumable`], the per-range [`LocalSource`](crate::work::LocalSource)
//! of `ffr run`/`ffr resume`, or the store-backed
//! [`LeaseQueue`](crate::work::LeaseQueue) for multi-process `ffr worker`
//! draining. Per-point cost varies wildly once adaptive stopping and
//! early convergence exit are in play, so chunks are claimed dynamically
//! rather than split statically. Each worker runs one point's injection
//! plan in 64-injection batches, consulting the [`AdaptivePolicy`] after
//! every batch, and writes progress back into the shared
//! [`CampaignCheckpoint`]. Persistence belongs to the source: it is told
//! when a chunk retires ([`WorkSource::chunk_done`]) and, once the threads
//! stop, to persist what is still unfinished ([`WorkSource::flush_held`]).
//!
//! # Determinism
//!
//! A point's injection plan and stopping decisions depend only on
//! `(seed, point, window, policy)` — never on scheduling. The work source
//! decides *who* computes a point, never *what* it computes. Killing the
//! run at any moment and resuming from the last flushed checkpoint — or
//! draining the same campaign with any number of worker processes —
//! therefore produces a final [`FdrTable`](ffr_fault::FdrTable) (or
//! [`SetDeratingTable`](ffr_fault::SetDeratingTable)) bit-identical to an
//! uninterrupted single-process run; the integration tests assert this
//! byte-for-byte for both fault models and both deployment shapes.
//!
//! [`AdaptivePolicy`]: crate::adaptive::AdaptivePolicy

use crate::checkpoint::{CampaignCheckpoint, PointProgress};
use crate::work::{CursorSource, WorkSource};
use ffr_fault::{sample_injection_times, Campaign, CampaignConfig, FailureJudge, FaultKind};
use ffr_sim::Stimulus;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Cooperative cancellation handle (cloneable; e.g. wired to Ctrl-C).
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A token that has not been cancelled.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation; workers stop at the next batch boundary.
    pub(crate) fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// `true` once cancellation was requested.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Runner tuning knobs.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Worker threads (`None` = available parallelism).
    pub threads: Option<usize>,
    /// Self-cancel after retiring this many points in this invocation
    /// (test/CLI hook for simulating a killed run).
    pub stop_after_points: Option<usize>,
    /// Telemetry sink for per-chunk spans, injection counters and
    /// retire-reason counts (disabled by default; never affects results).
    pub recorder: ffr_obs::Recorder,
}

impl Default for RunnerOptions {
    fn default() -> RunnerOptions {
        RunnerOptions {
            threads: None,
            stop_after_points: None,
            recorder: ffr_obs::Recorder::disabled(),
        }
    }
}

/// How a runner invocation ([`run_resumable`], or one worker of a
/// distributed campaign) ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every injection point is retired; the checkpoint holds the full
    /// campaign.
    Complete,
    /// Cancelled (token or `stop_after_points`); the checkpoint holds a
    /// resumable partial campaign.
    Cancelled,
    /// The work source is drained but this process's checkpoint is not
    /// complete: other workers computed (or are publishing) the remaining
    /// points. Only distributed sources produce this — the caller should
    /// merge the on-disk shards to obtain the full campaign.
    Drained,
}

struct Shared<'a> {
    checkpoint: &'a mut CampaignCheckpoint,
    /// Running count of complete points (kept in sync so per-retirement
    /// progress reporting stays O(1) instead of rescanning the list).
    completed: usize,
    retired_this_run: usize,
    io_error: Option<io::Error>,
}

/// Drive a checkpointed campaign (fresh or resumed) in memory to
/// completion or cancellation, claiming work off the in-process
/// work-stealing cursor. Nothing is written, so no error is returned in
/// practice: `checkpoint` holds every record, complete or partial, for the
/// caller to [save](CampaignCheckpoint::save). `progress` receives
/// `(retired_points, total_points)` after every retirement.
///
/// # Panics
///
/// Panics if the checkpoint's injection points do not fit the campaign's
/// circuit.
pub fn run_resumable<S, J>(
    campaign: &Campaign<'_, S, J>,
    checkpoint: &mut CampaignCheckpoint,
    options: &RunnerOptions,
    cancel: &CancelToken,
    progress: impl Fn(usize, usize) + Sync,
) -> io::Result<RunOutcome>
where
    S: Stimulus + Sync,
    J: FailureJudge,
{
    let source = CursorSource::new(checkpoint);
    run_with_source(campaign, checkpoint, &source, options, cancel, progress)
}

/// Drive a checkpointed campaign with an explicit [`WorkSource`] — the
/// generic engine behind [`run_resumable`] (cursor source) and
/// `ffr worker` ([`LeaseQueue`](crate::work::LeaseQueue)).
///
/// Worker threads claim chunks of point indices from `source`, let it
/// [`hydrate`](WorkSource::hydrate) externally persisted progress for the
/// chunk, run each not-yet-retired point's injection plan, and notify the
/// source via [`chunk_done`](WorkSource::chunk_done) once the whole chunk
/// is retired. Once every thread has stopped, the source persists the
/// chunks still held ([`flush_held`](WorkSource::flush_held)) — after a
/// cancel, an error or a drain alike.
///
/// # Errors
///
/// Propagates the first error the work source reports. On any error the
/// cancel token is triggered so blocking sources (a lease queue polling
/// for other workers) unwind promptly.
///
/// # Panics
///
/// Panics if the checkpoint's injection points do not fit the campaign's
/// circuit.
pub(crate) fn run_with_source<S, J, W>(
    campaign: &Campaign<'_, S, J>,
    checkpoint: &mut CampaignCheckpoint,
    source: &W,
    options: &RunnerOptions,
    cancel: &CancelToken,
    progress: impl Fn(usize, usize) + Sync,
) -> io::Result<RunOutcome>
where
    S: Stimulus + Sync,
    J: FailureJudge,
    W: WorkSource,
{
    // Budgeted campaigns cover a point subset, so the guard is on point
    // ids fitting the circuit, not on an exact count match.
    match checkpoint.params.fault {
        FaultKind::Seu => assert!(
            checkpoint
                .points
                .iter()
                .all(|p| (p.point as usize) < campaign.circuit().num_ffs()),
            "SEU checkpoint targets flip-flops beyond this circuit"
        ),
        FaultKind::Set => assert!(
            checkpoint
                .points
                .iter()
                .all(|p| (p.point as usize) < campaign.circuit().netlist().num_nets()),
            "SET checkpoint targets nets beyond this circuit"
        ),
    }
    let params = checkpoint.params.clone();
    let policy = params.policy.clone();
    let config = CampaignConfig::new(params.window_start..params.window_end)
        .with_injections(policy.max_injections)
        .with_seed(params.seed);

    let total = checkpoint.num_points;
    if checkpoint.is_complete() {
        return Ok(RunOutcome::Complete);
    }

    let threads = options
        .threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, source.parallelism_hint());
    let shared = Mutex::new(Shared {
        completed: checkpoint.completed_points(),
        checkpoint: &mut *checkpoint,
        retired_this_run: 0,
        io_error: None,
    });
    // Record an error and wake everything up: blocking sources poll the
    // cancel token, so a source failure must trip it to unwind.
    let fail = |guard: &mut Shared<'_>, e: io::Error| {
        if guard.io_error.is_none() {
            guard.io_error = Some(e);
        }
        cancel.cancel();
    };

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // Simulation buffers are allocated once per worker thread
                // and reused across every point and batch it processes.
                let mut scratch = campaign.point_scratch();
                loop {
                    if cancel.is_cancelled() {
                        return;
                    }
                    let chunk = match source.claim() {
                        Ok(c) => c,
                        Err(e) => {
                            fail(&mut shared.lock().expect("progress lock poisoned"), e);
                            return;
                        }
                    };
                    if chunk.is_empty() {
                        return;
                    }
                    // One span per claimed chunk: the `range.run` records are
                    // what `ffr stats` sums into injections/sec. Disabled
                    // recorders skip the clock entirely.
                    let mut range_span = options.recorder.span("range.run");
                    let mut chunk_injections = 0u64;
                    {
                        // Overlay externally persisted progress (another
                        // worker's shard) before touching the chunk.
                        let mut guard = shared.lock().expect("progress lock poisoned");
                        if guard.io_error.is_some() {
                            return;
                        }
                        let complete_in = |cp: &CampaignCheckpoint| {
                            chunk.iter().filter(|&&i| cp.points[i].complete).count()
                        };
                        let before = complete_in(guard.checkpoint);
                        if let Err(e) = source.hydrate(&chunk, guard.checkpoint) {
                            fail(&mut guard, e);
                            return;
                        }
                        guard.completed += complete_in(guard.checkpoint) - before;
                    }
                    let mut chunk_retired = true;
                    for &point_index in &chunk {
                        // Snapshot this point's progress. Only one worker of
                        // this process ever touches a given point (the source
                        // hands out disjoint chunks), so the snapshot cannot
                        // go stale.
                        let (mut record, point): (PointProgress, _) = {
                            let guard = shared.lock().expect("progress lock poisoned");
                            if guard.io_error.is_some() {
                                return;
                            }
                            (
                                guard.checkpoint.points[point_index].clone(),
                                guard.checkpoint.point(point_index),
                            )
                        };
                        if record.complete {
                            // Already retired (merged or hydrated from a
                            // shard): nothing to compute.
                            continue;
                        }
                        // Checked after the skip, so a chunk whose points
                        // are all retired is always reported done.
                        if cancel.is_cancelled() {
                            chunk_retired = false;
                            break;
                        }
                        let injections_before = record.injections_done;
                        let times = sample_injection_times(
                            params.seed,
                            point.stream(),
                            params.window_start..params.window_end,
                            policy.max_injections,
                        );
                        // Fan-out cone compiled once per point; every batch of
                        // this point reuses it (and the thread's scratch).
                        let mut point_runner = campaign.point_runner(point);
                        options.recorder.count("cone.points", 1);
                        options
                            .recorder
                            .count("cone.ops", point_runner.cone_ops() as u64);
                        options
                            .recorder
                            .count("cone.ffs", point_runner.cone_ffs() as u64);
                        options.recorder.count(
                            "cone.boundary_nets",
                            point_runner.cone_boundary_nets() as u64,
                        );
                        while !policy.is_settled(record.failures(), record.injections_done) {
                            if cancel.is_cancelled() {
                                break;
                            }
                            let batch = policy.next_batch(record.injections_done);
                            if batch == 0 {
                                break;
                            }
                            let slice =
                                &times[record.injections_done..record.injections_done + batch];
                            let counts = campaign.run_point_times_with(
                                &mut point_runner,
                                &mut scratch,
                                slice,
                                &config,
                            );
                            record.absorb(&counts, batch);
                        }
                        options
                            .recorder
                            .count("cone.cycles_saved", point_runner.cycles_saved());
                        options.recorder.count(
                            "frontier.ops_evaluated",
                            point_runner.frontier_ops_evaluated(),
                        );
                        options
                            .recorder
                            .count("frontier.ops_skipped", point_runner.frontier_ops_skipped());
                        options
                            .recorder
                            .count("frontier.peak", point_runner.frontier_peak() as u64);
                        options
                            .recorder
                            .count("judge.lanes_diverged", point_runner.lanes_diverged());
                        record.complete =
                            policy.is_settled(record.failures(), record.injections_done);

                        let injection_delta = (record.injections_done - injections_before) as u64;
                        chunk_injections += injection_delta;
                        options.recorder.count("injections", injection_delta);
                        if record.complete {
                            // Retire-reason split: did the adaptive policy stop
                            // early, or did the point exhaust its budget?
                            if record.injections_done >= policy.max_injections {
                                options.recorder.count("retire.max_injections", 1);
                            } else {
                                options.recorder.count("retire.early_settled", 1);
                            }
                        }

                        // Publish progress; report on retirement. Partial
                        // progress only happens on cancellation and reaches
                        // disk through the source's end-of-run flush.
                        let mut guard = shared.lock().expect("progress lock poisoned");
                        let retired = record.complete;
                        guard.checkpoint.points[point_index] = record;
                        if !retired {
                            chunk_retired = false;
                            continue;
                        }
                        guard.retired_this_run += 1;
                        guard.completed += 1;
                        progress(guard.completed, total);
                        if let Some(limit) = options.stop_after_points {
                            if guard.retired_this_run >= limit {
                                cancel.cancel();
                            }
                        }
                    }
                    range_span.field("points", chunk.len());
                    range_span.field("injections", chunk_injections);
                    range_span.field("retired", chunk_retired);
                    drop(range_span);
                    if chunk_retired {
                        let mut guard = shared.lock().expect("progress lock poisoned");
                        if let Err(e) = source.chunk_done(&chunk, guard.checkpoint) {
                            fail(&mut guard, e);
                            return;
                        }
                    }
                }
            });
        }
    });

    let mut shared = shared.into_inner().expect("progress lock poisoned");
    // Persist what the threads left unfinished (cancelled, failed or
    // drained chunks); the first error wins.
    if let Err(e) = source.flush_held(shared.checkpoint) {
        shared.io_error.get_or_insert(e);
    }
    if let Some(e) = shared.io_error {
        return Err(e);
    }
    Ok(if shared.checkpoint.is_complete() {
        RunOutcome::Complete
    } else if cancel.is_cancelled() {
        RunOutcome::Cancelled
    } else {
        RunOutcome::Drained
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptivePolicy;
    use crate::checkpoint::CheckpointParams;
    use ffr_circuits::small;
    use ffr_fault::{
        FfCampaignResult, InjectionPoint, NetSetResult, OutputMismatchJudge, SetDeratingTable,
    };
    use ffr_sim::{CompiledCircuit, InputFrame, WatchList};

    struct AlwaysOn;

    impl Stimulus for AlwaysOn {
        fn num_cycles(&self) -> u64 {
            150
        }

        fn drive(&self, _cycle: u64, frame: &mut InputFrame) {
            frame.set(0, true);
        }
    }

    fn params(fault: FaultKind, policy: AdaptivePolicy) -> CheckpointParams {
        CheckpointParams {
            fault,
            seed: 11,
            window_start: 10,
            window_end: 120,
            policy,
        }
    }

    fn checkpoint_for(cc: &CompiledCircuit, policy: AdaptivePolicy) -> CampaignCheckpoint {
        let ffs = 0..cc.num_ffs() as u32;
        CampaignCheckpoint::fresh("test".into(), params(FaultKind::Seu, policy), ffs)
    }

    fn set_checkpoint_for(cc: &CompiledCircuit, policy: AdaptivePolicy) -> CampaignCheckpoint {
        let nets = cc.comb_output_nets().into_iter().map(|n| n.index() as u32);
        CampaignCheckpoint::fresh("test".into(), params(FaultKind::Set, policy), nets)
    }

    /// [`run_resumable`] with a fresh cancel token and no progress
    /// callback.
    fn drive<S: Stimulus + Sync, J: FailureJudge>(
        campaign: &Campaign<'_, S, J>,
        checkpoint: &mut CampaignCheckpoint,
        options: &RunnerOptions,
    ) -> RunOutcome {
        run_resumable(
            campaign,
            checkpoint,
            options,
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap()
    }

    /// A fixed-budget runner campaign reproduces the one-shot engine
    /// ([`Campaign::run_point`]) point for point: over every flip-flop,
    /// and at two threads over a subset, which alone the table covers.
    #[test]
    fn complete_run_matches_classic_campaign() {
        let cc = CompiledCircuit::compile(small::lfsr_pipeline(4, 2)).unwrap();
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let campaign = Campaign::new(&cc, &AlwaysOn, &watch, &judge);
        let config = CampaignConfig::new(10..120)
            .with_injections(128)
            .with_seed(11);

        let all: Vec<u32> = (0..cc.num_ffs() as u32).collect();
        let subset: Vec<u32> = all.iter().copied().step_by(3).collect();
        for (points, threads) in [(all, None), (subset, Some(2))] {
            let params = params(FaultKind::Seu, AdaptivePolicy::fixed(128));
            let mut cp = CampaignCheckpoint::fresh("test".into(), params, points.clone());
            let options = RunnerOptions {
                threads,
                ..RunnerOptions::default()
            };
            assert_eq!(drive(&campaign, &mut cp, &options), RunOutcome::Complete);
            let table = cp.to_fdr_table_for(cc.num_ffs());
            let covered: Vec<u32> = table.covered().map(|r| r.ff().index() as u32).collect();
            assert_eq!(covered, points);
            for r in table.covered() {
                let one_shot = campaign.run_point(InjectionPoint::Seu(r.ff()), &config);
                assert_eq!(r, &FfCampaignResult::new(r.ff(), one_shot));
            }
        }
    }

    #[test]
    fn cancelled_run_resumes_to_identical_table() {
        let cc = CompiledCircuit::compile(small::alu_circuit(4)).unwrap();
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let campaign = Campaign::new(&cc, &AlwaysOn, &watch, &judge);
        let policy = AdaptivePolicy::adaptive(64, 256, 0.05);

        // Uninterrupted reference.
        let mut reference = checkpoint_for(&cc, policy.clone());
        drive(&campaign, &mut reference, &RunnerOptions::default());

        // Killed after 3 retirements, then resumed.
        let mut cp = checkpoint_for(&cc, policy);
        let outcome = drive(
            &campaign,
            &mut cp,
            &RunnerOptions {
                stop_after_points: Some(3),
                threads: Some(2),
                ..RunnerOptions::default()
            },
        );
        assert_eq!(outcome, RunOutcome::Cancelled);
        assert!(cp.completed_points() >= 3);
        assert!(!cp.is_complete());

        let outcome = drive(&campaign, &mut cp, &RunnerOptions::default());
        assert_eq!(outcome, RunOutcome::Complete);
        assert_eq!(cp, reference, "resume must be bit-identical");
    }

    #[test]
    fn set_campaign_runs_resumable_and_matches_one_shot() {
        // The unified runner must reproduce the one-shot SET campaign
        // exactly, and a cancelled SET run must resume bit-identically.
        let cc = CompiledCircuit::compile(small::counter_circuit(5)).unwrap();
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let campaign = Campaign::new(&cc, &AlwaysOn, &watch, &judge);
        let policy = AdaptivePolicy::fixed(96);

        let mut reference = set_checkpoint_for(&cc, policy.clone());
        let outcome = drive(&campaign, &mut reference, &RunnerOptions::default());
        assert_eq!(outcome, RunOutcome::Complete);
        let resumable = reference.to_set_table();

        // One-shot engine on the same nets, same seed/window; then a net
        // subset at two threads, which alone the table covers.
        let config = CampaignConfig::new(10..120)
            .with_injections(96)
            .with_seed(11);
        let one_shot =
            |net| NetSetResult::new(net, campaign.run_point(InjectionPoint::Set(net), &config));
        let nets = cc.comb_output_nets();
        let all = SetDeratingTable::from_results(nets.iter().map(|&n| one_shot(n)).collect(), 96);
        assert_eq!(resumable, all);
        let subset: Vec<u32> = nets.iter().step_by(3).map(|n| n.index() as u32).collect();
        let params = params(FaultKind::Set, policy.clone());
        let mut cp = CampaignCheckpoint::fresh("test".into(), params, subset.clone());
        let options = RunnerOptions {
            threads: Some(2),
            ..RunnerOptions::default()
        };
        assert_eq!(drive(&campaign, &mut cp, &options), RunOutcome::Complete);
        let table = cp.to_set_table();
        let covered: Vec<u32> = table.covered().map(|r| r.net().index() as u32).collect();
        assert_eq!(covered, subset);
        for r in table.covered() {
            assert_eq!(r, &one_shot(r.net()));
        }

        // Kill after 2 retirements, resume, compare checkpoints.
        let mut cp = set_checkpoint_for(&cc, policy);
        let outcome = drive(
            &campaign,
            &mut cp,
            &RunnerOptions {
                stop_after_points: Some(2),
                threads: Some(2),
                ..RunnerOptions::default()
            },
        );
        assert_eq!(outcome, RunOutcome::Cancelled);
        drive(&campaign, &mut cp, &RunnerOptions::default());
        assert_eq!(cp, reference, "SET resume must be bit-identical");
    }

    #[test]
    fn adaptive_policy_spends_fewer_injections() {
        let cc = CompiledCircuit::compile(small::traffic_light()).unwrap();
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let campaign = Campaign::new(&cc, &AlwaysOn, &watch, &judge);

        let mut fixed = checkpoint_for(&cc, AdaptivePolicy::fixed(256));
        drive(&campaign, &mut fixed, &RunnerOptions::default());

        let mut adaptive = checkpoint_for(&cc, AdaptivePolicy::adaptive(64, 256, 0.06));
        drive(&campaign, &mut adaptive, &RunnerOptions::default());

        assert!(adaptive.total_injections() < fixed.total_injections());
        // Settled flip-flops agree on the paper's binary split: a fully
        // benign FF under one policy is fully benign under the other.
        let tf = fixed.to_fdr_table_for(cc.num_ffs());
        let ta = adaptive.to_fdr_table_for(cc.num_ffs());
        for (ff, _) in cc.netlist().ffs() {
            let f = tf.fdr(ff).unwrap();
            let a = ta.fdr(ff).unwrap();
            assert!(
                (f - a).abs() < 0.15,
                "{}: fixed {f} vs adaptive {a}",
                cc.netlist().ff_name(ff)
            );
        }
    }

    /// A source whose `chunk_done` fails to persist ends the run with
    /// that error.
    #[test]
    fn chunk_done_errors_propagate() {
        struct Unwritable(CursorSource);
        impl WorkSource for Unwritable {
            fn claim(&self) -> io::Result<Vec<usize>> {
                self.0.claim()
            }
            fn chunk_done(&self, _: &[usize], _: &CampaignCheckpoint) -> io::Result<()> {
                Err(io::Error::other("disk full"))
            }
            fn parallelism_hint(&self) -> usize {
                self.0.parallelism_hint()
            }
        }
        let cc = CompiledCircuit::compile(small::counter_circuit(4)).unwrap();
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let campaign = Campaign::new(&cc, &AlwaysOn, &watch, &judge);
        let mut cp = checkpoint_for(&cc, AdaptivePolicy::fixed(64));
        let source = Unwritable(CursorSource::new(&cp));
        let err = run_with_source(
            &campaign,
            &mut cp,
            &source,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap_err();
        assert!(err.to_string().contains("disk full"));
    }
}
