//! The traced pass's layer replay: after a traced repetition, the
//! workload's inputs are pushed through each layer's *public* functions
//! with a span around every call, so host time is attributed to the
//! repo's modules without editing them.
//!
//! Interposition uses the public `FailureJudge` trait seam (a
//! [`TimedJudge`]); the store is timed around its public `get` / `put`.
//! Exact-repeating counts come from the program's own telemetry
//! (`CampaignStats`, what `ffr stats --json` prints).

use crate::metrics::MODELS;
use crate::spans::{self_time_by_name, Trace};
use crate::stats::median;
use crate::workloads::Params;
use ffr_campaign::{AdaptivePolicy, ArtifactStore, CircuitSpec, PreparedCircuit, StoreKey};
use ffr_circuits::{corpus, Mac10ge, Mac10geConfig};
use ffr_core::ModelKind;
use ffr_fault::{
    sample_injection_times, Campaign, CampaignConfig, FailureClass, FailureJudge, FaultKind,
    FdrTable, InjectionPoint,
};
use ffr_features::FeatureMatrix;
use ffr_ml::model_selection::{grid_search, GroupKFold};
use ffr_netlist::{FfId, Netlist};
use ffr_sim::{
    ActivityTrace, CompiledCircuit, GoldenRun, InputFrame, LaneView, SimState, Stimulus,
};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Per-layer metric values by name; names absent here read 0.
pub type Values = BTreeMap<String, f64>;

/// Rows of the ledger: where the wall of the traced repetition went, by
/// layer. Each is reported as `ledger.<row>_pct`; the remainder is
/// `campaign.unattributed_pct`.
pub const LEDGER_ROWS: [&str; 11] = [
    "front_end",
    "golden",
    "cone_build",
    "batch_sim",
    "judge",
    "flush",
    "runner",
    "publish",
    "store",
    "features",
    "ml",
];

/// Seconds of the traced repetition attributed to each ledger row.
#[derive(Default, Debug)]
pub struct Shares(BTreeMap<&'static str, f64>);

impl Shares {
    /// Attribute `seconds` to `row` (one of [`LEDGER_ROWS`]).
    pub fn add(&mut self, row: &'static str, seconds: f64) {
        debug_assert!(LEDGER_ROWS.contains(&row), "unknown ledger row {row}");
        *self.0.entry(row).or_insert(0.0) += seconds;
    }

    /// Write every row as a percentage of `wall_s`, and what no row
    /// claimed as `campaign.unattributed_pct`.
    pub fn write_percentages(&self, wall_s: f64, v: &mut Values) {
        let mut attributed = 0.0;
        for row in LEDGER_ROWS {
            let seconds = self.0.get(row).copied().unwrap_or(0.0);
            attributed += seconds;
            v.insert(format!("ledger.{row}_pct"), seconds / wall_s * 100.0);
        }
        v.insert(
            "campaign.unattributed_pct".into(),
            (wall_s - attributed) / wall_s * 100.0,
        );
    }
}

/// A `FailureJudge` that accumulates the host time spent classifying.
pub struct TimedJudge<J> {
    inner: J,
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl<J> TimedJudge<J> {
    /// Wrap a judge.
    pub fn new(inner: J) -> TimedJudge<J> {
        TimedJudge {
            inner,
            nanos: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    /// Seconds spent inside `classify` so far.
    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// `classify` calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl<J: FailureJudge> FailureJudge for TimedJudge<J> {
    fn classify(
        &self,
        golden: &LaneView<'_>,
        faulty: &LaneView<'_>,
        inject_cycle: u64,
    ) -> FailureClass {
        let t = Instant::now();
        let class = self.inner.classify(golden, faulty, inject_cycle);
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        class
    }
}

/// The netlist generator behind a circuit spec, for the specs the
/// workloads use (`circuits` layer, without compilation).
fn build_netlist(spec: &CircuitSpec) -> Option<Netlist> {
    match spec {
        CircuitSpec::Mac => Some(Mac10ge::build(Mac10geConfig::default()).into_netlist()),
        CircuitSpec::MacSmall => Some(Mac10ge::build(Mac10geConfig::small()).into_netlist()),
        CircuitSpec::Corpus { id } => corpus::resolve(id).ok(),
        _ => None,
    }
}

/// What the front-end replay leaves for the later stages.
pub struct FrontEnd {
    /// The prepared circuit (compiled netlist, stimulus, watch list).
    pub prepared: PreparedCircuit,
    /// Its golden run.
    pub golden: GoldenRun,
    /// Seconds `CircuitSpec::prepare` took (netlist build and compile
    /// included).
    pub prepare_s: f64,
    /// Seconds `GoldenRun::capture` took.
    pub golden_s: f64,
    /// Seconds one `StoreKey::of` took (it serialises and hashes the whole
    /// netlist; every cache lookup starts with one).
    pub key_s: f64,
}

/// Replay the front end of one CLI invocation: netlist generation,
/// compilation, `spec.prepare`, golden capture, and a dense pass that
/// separates evaluation from activity recording.
pub fn replay_front_end(trace: &mut Trace, v: &mut Values, circuit: &str, p: &Params) -> FrontEnd {
    let spec: CircuitSpec = circuit.parse().expect("workload circuit specs parse");
    let cycles = p.cycles();
    let id = trace.enter("front_end");
    if let (Some(netlist), build_s) = trace.scope("circuits.build", |_| build_netlist(&spec)) {
        v.insert("circuits.build_ms".into(), build_s * 1e3);
        let (_, compile_s) = trace.scope("sim.compile", |_| {
            CompiledCircuit::compile(netlist).expect("workload circuits compile")
        });
        v.insert("sim.compile_ms".into(), compile_s * 1e3);
    }
    // Stimulus seed 1 is the CLI default the workloads leave in place.
    let (prepared, prepare_s) = trace.scope("campaign.spec.prepare", |_| spec.prepare(1, cycles));
    v.insert("campaign.spec.prepare_ms".into(), prepare_s * 1e3);
    let (_, key_s) = trace.scope("campaign.store.key", |_| {
        StoreKey::of(prepared.cc.netlist(), &prepared.config_desc)
    });
    v.insert("campaign.store.key_ms".into(), key_s * 1e3);
    let (golden, golden_s) = trace.scope("sim.golden", |_| {
        GoldenRun::capture(&prepared.cc, &prepared.stimulus, &prepared.watch)
    });
    v.insert("sim.golden_ms".into(), golden_s * 1e3);

    // Dense replay: the same per-cycle loop as the golden capture, with
    // evaluation and activity recording timed apart.
    let cc = &prepared.cc;
    let mut state = SimState::new(cc);
    let mut frame = InputFrame::new(cc.num_inputs());
    let mut activity = ActivityTrace::new(cc.num_ffs());
    let (mut eval_s, mut activity_s) = (0.0, 0.0);
    let dense = trace.enter("sim.dense");
    for cycle in 0..prepared.stimulus.num_cycles() {
        frame.clear();
        prepared.stimulus.drive(cycle, &mut frame);
        frame.apply(cc, &mut state);
        let t = Instant::now();
        state.eval(cc);
        let t_eval = t.elapsed();
        activity.record(cc, &state);
        activity_s += (t.elapsed() - t_eval).as_secs_f64();
        eval_s += t_eval.as_secs_f64();
        state.tick(cc);
    }
    trace.record_elapsed("features.activity", activity_s);
    trace.exit(dense);
    let ops = cc.num_ops() as f64 * prepared.stimulus.num_cycles() as f64;
    v.insert("sim.dense_mops_per_s".into(), ops / eval_s.max(1e-9) / 1e6);
    v.insert("features.activity_ms".into(), activity_s * 1e3);
    trace.exit(id);
    FrontEnd {
        prepared,
        golden,
        prepare_s,
        golden_s,
        key_s,
    }
}

/// Replay the measurement phase of a campaign through the fault layer's
/// public batch API, point by point, with the judge interposed.
pub fn replay_measure(
    trace: &mut Trace,
    v: &mut Values,
    shares: &mut Shares,
    front: &FrontEnd,
    p: &Params,
    seed: u64,
    measured: Option<&FdrTable>,
) {
    let prepared = &front.prepared;
    let fault = p.fault();
    let judge = TimedJudge::new(prepared.judge_spec.build(&front.golden));
    let campaign = Campaign::with_golden(
        &prepared.cc,
        &prepared.stimulus,
        &prepared.watch,
        &judge,
        front.golden.clone(),
    );
    let id = trace.enter("fault.measure");
    let (journal_mb, journal_s) = trace.scope("sim.journal", |_| {
        let journal = campaign.net_journal();
        (journal.row(0).len() as u64 * 8 * journal.cycles()) as f64 / (1024.0 * 1024.0)
    });
    v.insert("sim.journal_ms".into(), journal_s * 1e3);
    v.insert("sim.journal_mb".into(), journal_mb);

    // The campaign's points: the measured subset of a budgeted SEU
    // campaign (read back from its table), else every FF / comb net.
    let points: Vec<InjectionPoint> = match (fault, measured) {
        (FaultKind::Seu, Some(table)) => table
            .covered()
            .map(|r| InjectionPoint::Seu(r.ff()))
            .collect(),
        (FaultKind::Seu, None) => (0..prepared.cc.num_ffs())
            .map(|i| InjectionPoint::Seu(FfId::from_index(i)))
            .collect(),
        (FaultKind::Set, _) => prepared
            .cc
            .comb_output_nets()
            .into_iter()
            .map(InjectionPoint::Set)
            .collect(),
    };
    let policy = AdaptivePolicy::fixed(p.injections() as usize);
    let config = CampaignConfig::new(prepared.window.clone())
        .with_injections(policy.max_injections)
        .with_seed(seed);
    let mut scratch = campaign.point_scratch();
    let mut batch_us = Vec::new();
    let mut cone_ops = 0u64;
    let (mut evaluated, mut skipped, mut saved, mut injections) = (0u64, 0u64, 0u64, 0u64);
    for &point in &points {
        let point_span = trace.enter("fault.point");
        let (mut runner, _) = trace.scope("sim.cone_build", |_| campaign.point_runner(point));
        cone_ops += runner.cone_ops() as u64;
        let times = sample_injection_times(
            seed,
            point.stream(),
            prepared.window.clone(),
            policy.max_injections,
        );
        let mut done = 0;
        loop {
            let batch = policy.next_batch(done);
            if batch == 0 {
                break;
            }
            let judged_before = judge.seconds();
            let ((), s) = trace.scope("fault.batch", |trace| {
                campaign.run_point_times_with(
                    &mut runner,
                    &mut scratch,
                    &times[done..done + batch],
                    &config,
                );
                trace.record_elapsed("fault.judge", judge.seconds() - judged_before);
            });
            batch_us.push(s * 1e6);
            done += batch;
        }
        injections += done as u64;
        evaluated += runner.frontier_ops_evaluated();
        skipped += runner.frontier_ops_skipped();
        saved += runner.cycles_saved();
        trace.exit(point_span);
    }
    trace.exit(id);

    // A batch span's self time is simulation: its only child is the
    // judge time the wrapper accumulated during that batch.
    let own = self_time_by_name(trace.spans());
    let (cone_s, sim_s, judge_s) = (
        own["sim.cone_build"],
        own["fault.batch"],
        own["fault.judge"],
    );
    v.insert("sim.cone_build_ms".into(), cone_s * 1e3);
    v.insert(
        "sim.cone_ops_mean".into(),
        cone_ops as f64 / points.len().max(1) as f64,
    );
    v.insert("fault.batch_us".into(), median(&batch_us));
    v.insert("fault.batches".into(), batch_us.len() as f64);
    v.insert("fault.injections".into(), injections as f64);
    v.insert("fault.sim_s".into(), sim_s);
    v.insert(
        "fault.sim_ns_per_op".into(),
        sim_s * 1e9 / (evaluated.max(1)) as f64,
    );
    v.insert("fault.frontier_ops_evaluated".into(), evaluated as f64);
    v.insert("fault.frontier_ops_skipped".into(), skipped as f64);
    v.insert(
        "fault.frontier_eval_ratio".into(),
        evaluated as f64 / (evaluated + skipped).max(1) as f64,
    );
    v.insert("fault.cycles_saved".into(), saved as f64);
    v.insert("fault.judge_s".into(), judge_s);
    v.insert("fault.judge_calls".into(), judge.calls() as f64);
    shares.add("golden", journal_s);
    shares.add("cone_build", cone_s);
    shares.add("batch_sim", sim_s);
    shares.add("judge", judge_s);
}

/// Replay `features::extract_features`.
pub fn replay_extract(
    trace: &mut Trace,
    v: &mut Values,
    shares: &mut Shares,
    front: &FrontEnd,
) -> FeatureMatrix {
    let (features, s) = trace.scope("features.extract", |_| {
        ffr_features::extract_features(&front.prepared.cc, &front.golden.activity)
    });
    *v.entry("features.extract_ms".into()).or_insert(0.0) += s * 1e3;
    shares.add("features", s);
    features
}

fn default_kind(model: &str) -> ModelKind {
    ModelKind::parse_cli(model).expect("default model tokens parse")
}

/// One tuned-default fit and one batch prediction per default model kind
/// on the workload's training matrix.
pub fn replay_ml(
    trace: &mut Trace,
    v: &mut Values,
    tx: &[Vec<f64>],
    ty: &[f64],
    predict: &[Vec<f64>],
) {
    let id = trace.enter("ml");
    for model in MODELS {
        let mut regressor = default_kind(model).build();
        let ((), fit_s) = trace.scope(&format!("ml.fit.{model}"), |_| regressor.fit(tx, ty));
        let (predictions, predict_s) = trace.scope(&format!("ml.predict.{model}"), |_| {
            regressor.predict(predict)
        });
        std::hint::black_box(predictions);
        v.insert(format!("ml.fit_ms.{model}"), fit_s * 1e3);
        v.insert(
            format!("ml.predict_us_per_row.{model}"),
            predict_s * 1e6 / predict.len().max(1) as f64,
        );
    }
    trace.exit(id);
}

/// The models and grid budget the workload's model flags select
/// (defaults: the five default kinds, grid 3).
pub fn model_selection_of(p: &Params) -> (Vec<ModelKind>, usize) {
    let kinds = match Params::flag(p.model, "--models") {
        Some(list) => list
            .split(',')
            .map(|m| ModelKind::parse_cli(m).expect("workload model tokens parse"))
            .collect(),
        None => MODELS.iter().map(|m| default_kind(m)).collect(),
    };
    let grid = Params::flag(p.model, "--grid")
        .and_then(|g| g.parse().ok())
        .unwrap_or(3);
    (kinds, grid)
}

/// Training rows of a measured table: `(features of measured FFs, FDRs)`.
pub fn training_rows(features: &FeatureMatrix, table: &FdrTable) -> (Vec<Vec<f64>>, Vec<f64>) {
    table
        .covered()
        .map(|r| (features.row(r.ff().index()).to_vec(), r.fdr()))
        .unzip()
}

/// Replay the cross-circuit stage of `ffr transfer`: align the training
/// matrices, stack the measured rows with circuit groups, and run the
/// leave-one-circuit-out grid search per model. Returns the stacked
/// training set.
pub fn replay_transfer_selection(
    trace: &mut Trace,
    v: &mut Values,
    shares: &mut Shares,
    p: &Params,
    circuits: &[(String, FeatureMatrix, FdrTable)],
) -> (Vec<Vec<f64>>, Vec<f64>) {
    let id = trace.enter("campaign.transfer.select");
    let matrices: Vec<(String, FeatureMatrix)> = circuits
        .iter()
        .map(|(name, features, _)| (name.clone(), features.clone()))
        .collect();
    let (aligned, align_s) = trace.scope("features.align", |_| {
        ffr_features::align(&matrices).expect("corpus feature schemas align")
    });
    v.insert("features.align_ms".into(), align_s * 1e3);
    shares.add("features", align_s);
    let (mut tx, mut ty, mut groups) = (Vec::new(), Vec::new(), Vec::new());
    for (i, origin) in aligned.origins().iter().enumerate() {
        let group = aligned.groups()[i];
        if let Some(fdr) = circuits[group].2.fdr(FfId::from_index(origin.row)) {
            tx.push(aligned.rows()[i].clone());
            ty.push(fdr);
            groups.push(group);
        }
    }
    let folds = GroupKFold::leave_one_out(&groups);
    let (kinds, grid_budget) = model_selection_of(p);
    let mut cv_fits = 0;
    for kind in kinds {
        let grid = kind.small_grid(grid_budget);
        cv_fits += grid.len() * folds.len();
        let name = format!("campaign.estimate.fit.{}", kind.cli_name());
        let (_, s) = trace.scope(&name, |_| {
            grid_search(&grid, |c| c.build(), &tx, &ty, &folds)
        });
        v.insert(format!("campaign.estimate.fit_s.{}", kind.cli_name()), s);
        shares.add("ml", s);
    }
    v.insert("campaign.estimate.cv_fits".into(), cv_fits as f64);
    trace.exit(id);
    (tx, ty)
}

/// Seconds spent reading / writing artifacts of one kind during the
/// store replay.
#[derive(Default, Clone, Copy, Debug)]
pub struct KindCost {
    /// `ArtifactStore::get` seconds (backend read + envelope decode).
    pub get_s: f64,
    /// `ArtifactStore::put` seconds (envelope encode + backend write).
    pub put_s: f64,
}

/// Replay the store and codec layers over the artifacts a repetition
/// left in `store_dir`: read each back, write it to a scratch store, and push compressed kinds' payloads through
/// `codec::deflate` / `inflate`.
pub fn replay_store(
    trace: &mut Trace,
    v: &mut Values,
    store_dir: &Path,
    scratch_dir: &Path,
) -> io::Result<BTreeMap<&'static str, KindCost>> {
    let id = trace.enter("campaign.store");
    let source = ArtifactStore::open(store_dir)?;
    let sink = ArtifactStore::open(scratch_dir)?;
    let mut costs: BTreeMap<&'static str, KindCost> = BTreeMap::new();
    let (mut deflate_in, mut deflate_out) = (0u64, 0u64);
    let (mut deflate_s, mut inflate_s) = (0.0, 0.0);
    let mut artifacts = source.list()?;
    artifacts.sort_by(|a, b| a.path.cmp(&b.path));
    for info in artifacts {
        let Some(key) = parse_key(&info.file_name) else {
            continue;
        };
        let (value, get_s) = trace.scope("campaign.store.get", |_| {
            source.get::<serde_json::Value>(info.kind, &key)
        });
        let Some(value) = value? else { continue };
        let (put, put_s) = trace.scope("campaign.store.put", |_| sink.put(info.kind, &key, &value));
        put?;
        let cost = costs.entry(info.kind.dir_name()).or_default();
        cost.get_s += get_s;
        cost.put_s += put_s;
        if info.kind.compressed() {
            let payload = serde_json::to_string(&value).expect("value trees serialize");
            let (packed, s) = trace.scope("campaign.codec.deflate", |_| {
                ffr_campaign::codec::deflate(payload.as_bytes())
            });
            deflate_s += s;
            deflate_in += payload.len() as u64;
            deflate_out += packed.len() as u64;
            let (unpacked, s) = trace.scope("campaign.codec.inflate", |_| {
                ffr_campaign::codec::inflate(&packed)
            });
            inflate_s += s;
            assert_eq!(
                unpacked.map_err(io::Error::other)?,
                payload.as_bytes(),
                "codec round trip"
            );
        }
    }
    trace.exit(id);
    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    v.insert(
        "campaign.store.get_ms".into(),
        costs.values().map(|c| c.get_s).sum::<f64>() * 1e3,
    );
    v.insert(
        "campaign.store.put_ms".into(),
        costs.values().map(|c| c.put_s).sum::<f64>() * 1e3,
    );
    v.insert(
        "campaign.store.put_bytes".into(),
        sink.list()?.iter().map(|a| a.bytes).sum::<u64>() as f64,
    );
    if deflate_in > 0 {
        v.insert(
            "campaign.codec.deflate_mb_per_s".into(),
            mib(deflate_in) / deflate_s.max(1e-9),
        );
        v.insert(
            "campaign.codec.inflate_mb_per_s".into(),
            mib(deflate_in) / inflate_s.max(1e-9),
        );
        v.insert(
            "campaign.codec.ratio".into(),
            deflate_in as f64 / deflate_out.max(1) as f64,
        );
    }
    Ok(costs)
}

fn parse_key(file_name: &str) -> Option<StoreKey> {
    let (netlist, config) = file_name.strip_suffix(".json")?.split_once('-')?;
    Some(StoreKey {
        netlist: u64::from_str_radix(netlist, 16).ok()?,
        config: u64::from_str_radix(config, 16).ok()?,
    })
}

/// Fold the program's own telemetry of a traced session into the
/// per-layer values (`campaign.session`, `.runner`, `.checkpoint`,
/// `.work`, `.estimate.fit_s`, `obs.records`), and attribute what only
/// the telemetry can see: checkpoint and shard flushes, runner time
/// outside ranges, merge and publish, and the CV fits of `ffr estimate`.
pub fn fold_telemetry(v: &mut Values, shares: &mut Shares, session: &Path) {
    let Ok(stats) = ffr_campaign::CampaignStats::from_session(session) else {
        return;
    };
    let span_s = |name: &str| {
        stats
            .spans
            .get(name)
            .map_or(0.0, |s| s.total_us as f64 / 1e6)
    };
    let counter = |name: &str| stats.counters.get(name).copied().unwrap_or(0) as f64;
    let hist_p50 = |name: &str| {
        stats
            .hists
            .get(name)
            .map_or(0.0, |h| h.quantile_us(0.5) as f64)
    };
    let hist_sum_s = |name: &str| {
        stats
            .hists
            .get(name)
            .map_or(0.0, |h| h.sum_us() as f64 / 1e6)
    };
    v.insert(
        "campaign.session.golden_ms".into(),
        span_s("phase.golden") * 1e3,
    );
    v.insert(
        "campaign.session.measure_ms".into(),
        span_s("phase.measure") * 1e3,
    );
    v.insert(
        "campaign.session.merge_ms".into(),
        span_s("phase.merge") * 1e3,
    );
    v.insert(
        "campaign.session.publish_ms".into(),
        span_s("phase.publish") * 1e3,
    );
    // What the runner spends outside claimed ranges: work-source claims,
    // hydration and (for lease queues) waiting on lease files.
    let measure = span_s("phase.measure");
    let range_overhead = (measure - span_s("range.run")).max(0.0);
    if measure > 0.0 {
        v.insert(
            "campaign.runner.range_overhead_pct".into(),
            range_overhead / measure * 100.0,
        );
    }
    v.insert(
        "campaign.checkpoint.flushes".into(),
        counter("checkpoint.flushes"),
    );
    v.insert(
        "campaign.checkpoint.flush_ms".into(),
        hist_sum_s("checkpoint.flush_us") * 1e3,
    );
    v.insert(
        "campaign.work.shard_flush_ms".into(),
        hist_sum_s("shard.flush_us") * 1e3,
    );
    v.insert(
        "campaign.checkpoint.flush_us_p50".into(),
        hist_p50("checkpoint.flush_us"),
    );
    v.insert(
        "campaign.checkpoint.bytes".into(),
        std::fs::metadata(ffr_campaign::SessionPaths::new(session).checkpoint())
            .map_or(0.0, |m| m.len() as f64),
    );
    v.insert("campaign.work.lease_claims".into(), counter("lease.claims"));
    v.insert(
        "campaign.work.shard_flushes".into(),
        counter("shard.flushes"),
    );
    v.insert(
        "campaign.work.shard_flush_us_p50".into(),
        hist_p50("shard.flush_us"),
    );
    v.insert("obs.records".into(), stats.total_records() as f64);

    // `estimate.fit` spans carry the model in a string field, which the
    // merged stats drop: read them from the raw log.
    let log = ffr_obs::telemetry_dir(session).join("estimate.jsonl");
    for line in std::fs::read_to_string(log).unwrap_or_default().lines() {
        let Ok(record) = serde_json::parse_value_complete(line) else {
            continue;
        };
        if record.get("name").and_then(|n| n.as_str()) != Some("estimate.fit") {
            continue;
        }
        let model = record
            .get("fields")
            .and_then(|f| f.get("model"))
            .and_then(|m| m.as_str());
        let dur_us = match record.get("dur_us") {
            Some(serde_json::Value::U64(n)) => *n as f64,
            _ => continue,
        };
        if let Some(model) = model {
            *v.entry(format!("campaign.estimate.fit_s.{model}"))
                .or_insert(0.0) += dur_us / 1e6;
            shares.add("ml", dur_us / 1e6);
        }
    }
    shares.add(
        "flush",
        hist_sum_s("checkpoint.flush_us") + hist_sum_s("shard.flush_us"),
    );
    shares.add("runner", range_overhead);
    shares.add("publish", span_s("phase.merge") + span_s("phase.publish"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffr_fault::OutputMismatchJudge;
    use ffr_sim::OutputTrace;

    #[test]
    fn timed_judge_counts_and_forwards() {
        let judge = TimedJudge::new(OutputMismatchJudge::new());
        let golden = OutputTrace::new(0, 4, 1);
        let view = LaneView::golden(&golden);
        assert_eq!(judge.classify(&view, &view, 0), FailureClass::Benign);
        assert_eq!(judge.classify(&view, &view, 1), FailureClass::Benign);
        assert_eq!(judge.calls(), 2);
        assert!(judge.seconds() >= 0.0);
    }

    #[test]
    fn store_keys_parse_from_artifact_file_names() {
        let key = parse_key("00000000000000ff-0000000000000010.json").unwrap();
        assert_eq!((key.netlist, key.config), (0xff, 0x10));
        assert!(parse_key("not-a-key.json").is_none());
        assert!(parse_key("00ff-0010.tmp").is_none());
    }
}
