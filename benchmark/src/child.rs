//! One pass of one workload, run in a child process of the benchmark
//! binary so that `peak_rss_mb` is per workload and `FFR_TELEMETRY` can
//! be switched for the timed repetitions.
//!
//! * **Timed pass** (`--trace 0`): set-up passes, then repetitions of the
//!   timed command sequence at `--threads 1` with telemetry off for
//!   `--seconds`; reports the end-to-end metrics.
//! * **Traced pass** (`--trace 1`): one untraced and one traced
//!   repetition, the reference campaigns accuracy and savings are judged
//!   against, then the layer replay; reports the per-layer metrics and
//!   writes `trace-<workload>.jsonl`.

use crate::layers::{self, Shares, Values};
use crate::metrics::{self, MetricDef};
use crate::report::{Measured, WorkloadResult};
use crate::spans::Trace;
use crate::stats::{quantile, summarize};
use crate::workloads::{self, Ctx, Kind, Ops, Params, Rep, State, Workload};
use ffr_campaign::store::fnv1a64;
use ffr_campaign::{EstimateReport, SessionPaths, TransferReport};
use ffr_fault::{FaultKind, FdrTable};
use ffr_netlist::FfId;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The seed the committed digests were recorded at.
pub const DEFAULT_SEED: u64 = 2019;

/// Set-up passes stop once this many seconds of set-up have been spent
/// (or after [`MAX_SETUP_PASSES`]); `setup_s` is the median pass.
const SETUP_BUDGET_S: f64 = 2.0;
const MAX_SETUP_PASSES: usize = 3;

/// `ffr_abs_err` above this fails the estimate workload's output check.
const FFR_ABS_ERR_LIMIT: f64 = 0.05;

/// Everything a child needs to run one pass.
pub struct ChildOpts {
    /// The workload.
    pub workload: &'static Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measure for at least this long (timed pass).
    pub seconds: f64,
    /// Fixed repetition count, overriding `seconds`.
    pub reps: Option<usize>,
    /// Traced pass instead of timed pass.
    pub trace: bool,
    /// `--quick` sizes.
    pub quick: bool,
    /// Scratch directory for sessions and stores.
    pub work: PathBuf,
    /// Where this process's stdout is redirected.
    pub stdout_log: PathBuf,
    /// Where `trace-<workload>.jsonl` goes.
    pub out_dir: PathBuf,
    /// Committed digest of the workload's artifact at [`DEFAULT_SEED`].
    pub expected_digest: Option<String>,
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads of the parallel repetition: `min(nproc, 4)`.
pub fn par_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

fn set_telemetry(on: bool) {
    // Only ever called between repetitions, when this process has no
    // other thread running.
    if on {
        std::env::remove_var("FFR_TELEMETRY");
    } else {
        std::env::set_var("FFR_TELEMETRY", "0");
    }
}

fn digest_of(artifact: &[u8]) -> String {
    format!("{:016x}", fnv1a64(artifact))
}

fn check_digest(opts: &ChildOpts, ops: &mut Ops, digest: &str) {
    if opts.seed != DEFAULT_SEED || opts.quick {
        return;
    }
    if let Some(expected) = &opts.expected_digest {
        ops.check(digest == expected, || {
            format!("artifact digest {digest} differs from the committed {expected}")
        });
    }
}

fn collect(
    opts: &ChildOpts,
    ops: Ops,
    (digest, report_digest): (String, String),
    table: &[MetricDef],
    value_of: impl Fn(&MetricDef) -> Measured,
) -> WorkloadResult {
    WorkloadResult {
        workload: opts.workload.name.to_string(),
        trace: opts.trace,
        attempted: ops.attempted,
        failed: ops.failed,
        notes: ops.notes,
        digest,
        report_digest,
        metrics: table
            .iter()
            .map(|def| (def.name.to_string(), value_of(def)))
            .collect(),
    }
}

/// Run the pass `opts` describes.
pub fn run(opts: &ChildOpts) -> WorkloadResult {
    let ctx = Ctx {
        seed: opts.seed,
        quick: opts.quick,
        work: opts.work.clone(),
        stdout_log: opts.stdout_log.clone(),
    };
    set_telemetry(false);
    if opts.trace {
        traced_pass(opts, &ctx)
    } else {
        timed_pass(opts, &ctx)
    }
}

fn timed_pass(opts: &ChildOpts, ctx: &Ctx) -> WorkloadResult {
    let w = opts.workload;
    let mut ops = Ops::default();

    let mut setup_s = Vec::new();
    let mut state: Option<State> = None;
    for pass in 0..MAX_SETUP_PASSES {
        if let Some(previous) = state.take() {
            previous.shutdown();
        }
        let t = Instant::now();
        state = Some(workloads::setup(w, ctx, pass, &mut ops));
        setup_s.push(t.elapsed().as_secs_f64());
        if setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S {
            break;
        }
    }
    let mut state = state.expect("at least one set-up pass ran");

    let min_reps = if opts.quick { 1 } else { 3 };
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let mut first: Option<(Vec<u8>, Vec<u8>)> = None;
    let measuring = Instant::now();
    loop {
        let rep = workloads::rep(w, ctx, &mut state, walls.len(), 1, &mut ops);
        walls.push(rep.wall_s);
        rates.push(rep.fdrs as f64 / rep.wall_s);
        match &first {
            None => first = Some((rep.table, rep.report)),
            Some((table, report)) => {
                ops.check(&rep.table == table && &rep.report == report, || {
                    "result table or report differs between repetitions".to_string()
                });
            }
        }
        let done = match opts.reps {
            Some(n) => walls.len() >= n,
            None => walls.len() >= min_reps && measuring.elapsed().as_secs_f64() >= opts.seconds,
        };
        if done {
            break;
        }
    }
    state.shutdown();
    let (table, report) = first.unwrap_or_default();
    let digests = (digest_of(&table), digest_of(&report));
    check_digest(opts, &mut ops, &digests.0);

    let rss = peak_rss_mb();
    collect(opts, ops, digests, metrics::END_TO_END, |def| {
        let samples: &[f64] = match def.name {
            "wall_s" => &walls,
            "fdrs_per_s" => &rates,
            "setup_s" => &setup_s,
            "peak_rss_mb" => return Measured::single(def, rss),
            other => unreachable!("no end-to-end metric `{other}`"),
        };
        Measured::from_summary(def, summarize(samples).expect("at least one sample"))
    })
}

/// Campaign flags without the `--budget` pair: the full flat campaign the
/// estimate is judged against.
fn reference_flags(p: &Params) -> Vec<&'static str> {
    let mut flags = Vec::new();
    let mut skip = false;
    for &f in p.campaign {
        if skip {
            skip = false;
        } else if f == "--budget" {
            skip = true;
        } else {
            flags.push(f);
        }
    }
    flags
}

/// Run the reference flat campaign on the workload's circuit; returns its
/// wall and table.
fn reference_campaign(ops: &mut Ops, p: &Params, seed: u64, out: &Path) -> (f64, Option<FdrTable>) {
    let flags = reference_flags(p);
    let mut args: Vec<String> = ["run", "--circuit", p.circuit]
        .iter()
        .chain(flags.iter())
        .map(|s| s.to_string())
        .collect();
    args.extend([
        "--seed".to_string(),
        seed.to_string(),
        "--out".to_string(),
        out.to_string_lossy().into_owned(),
        "--threads".to_string(),
        "1".to_string(),
    ]);
    let t = Instant::now();
    ops.ffr(&args);
    let wall = t.elapsed().as_secs_f64();
    (
        wall,
        FdrTable::load_json(&SessionPaths::new(out).fdr_json()).ok(),
    )
}

/// Mean absolute difference between predictions and the reference over
/// the flip-flops `counted` selects.
fn mae_against(reference: &FdrTable, predictions: impl Iterator<Item = (usize, f64, bool)>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for (index, fdr, counted) in predictions {
        if let (true, Some(truth)) = (counted, reference.fdr(FfId::from_index(index))) {
            sum += (fdr - truth).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// What the per-kind replays share.
struct Replay<'a> {
    ctx: &'a Ctx,
    p: &'a Params,
    state: &'a State,
    traced: &'a Rep,
    /// Wall of the untraced repetition.
    wall: f64,
    trace: Trace,
    v: Values,
    shares: Shares,
    ops: Ops,
}

fn traced_pass(opts: &ChildOpts, ctx: &Ctx) -> WorkloadResult {
    let w = opts.workload;
    let p = w.params(ctx);
    let mut ops = Ops::default();
    let mut v = Values::new();
    let mut trace = Trace::new();

    let (mut state, _) = trace.scope("setup", |_| workloads::setup(w, ctx, 0, &mut ops));
    let (untraced, _) = trace.scope("rep.untraced", |_| {
        workloads::rep(w, ctx, &mut state, 0, 1, &mut ops)
    });
    set_telemetry(true);
    let (traced, _) = trace.scope("rep.traced", |_| {
        workloads::rep(w, ctx, &mut state, 1, 1, &mut ops)
    });
    set_telemetry(false);
    ops.check(
        traced.table == untraced.table && traced.report == untraced.report,
        || "telemetry changed the result table or report".to_string(),
    );
    let digests = (digest_of(&untraced.table), digest_of(&untraced.report));
    check_digest(opts, &mut ops, &digests.0);

    let wall = untraced.wall_s;
    v.insert(
        "obs.telemetry_overhead_pct".into(),
        (traced.wall_s - wall) / wall * 100.0,
    );
    if untraced.injections > 0 {
        v.insert("injections_per_s".into(), untraced.injections as f64 / wall);
    }
    for (command, seconds) in &traced.parts {
        let name = format!("campaign.cli.{command}_ms");
        if metrics::find(&name).is_some() {
            v.insert(name, seconds * 1e3 / p.iterations as f64);
        }
    }

    // Same campaign at min(nproc, 4) threads: SEU flat workloads only.
    if w.kind == Kind::Flat && p.fault() == FaultKind::Seu {
        let (par, _) = trace.scope("rep.parallel", |_| {
            workloads::rep(w, ctx, &mut state, 2, par_threads(), &mut ops)
        });
        ops.check(par.table == untraced.table, || {
            format!("table differs between --threads 1 and {}", par_threads())
        });
        v.insert("wall_par_s".into(), par.wall_s);
        v.insert("campaign.runner.par_speedup_x".into(), wall / par.wall_s);
    }

    let mut r = Replay {
        ctx,
        p,
        state: &state,
        traced: &traced,
        wall,
        trace,
        v,
        shares: Shares::default(),
        ops,
    };
    layers::fold_telemetry(&mut r.v, &mut r.shares, &traced.session);
    let replay = r.trace.enter("replay");
    match w.kind {
        Kind::Flat => {
            replay_run(&mut r, 1.0, None);
        }
        Kind::Fleet => {
            // `ffrd` prepares the circuit once more when it accepts the
            // submission.
            replay_run(&mut r, 2.0, None);
            service_metrics(&mut r.v, &mut r.ops, &state, &traced);
        }
        Kind::Estimate => replay_estimate(&mut r),
        Kind::Transfer => replay_transfer(&mut r),
        Kind::Warm => {
            let front = layers::replay_front_end(&mut r.trace, &mut r.v, p.circuit, p);
            // `run` and `estimate` each prepare the circuit and derive
            // one store key, every iteration.
            let n = 2.0 * p.iterations as f64;
            r.shares.add("front_end", n * front.prepare_s);
            r.shares.add("store", n * front.key_s);
        }
    }
    if let Some(store) = &traced.store {
        let scratch = state.dir().join("store-replay");
        match layers::replay_store(&mut r.trace, &mut r.v, store, &scratch) {
            Ok(costs) if w.kind == Kind::Warm => {
                // A warm iteration reads the table (`run`) and the report
                // (`estimate`) back from the store.
                let reads: f64 = ["fdr-table", "report"]
                    .iter()
                    .filter_map(|kind| costs.get(kind))
                    .map(|c| c.get_s)
                    .sum();
                r.shares.add("store", reads * p.iterations as f64);
            }
            Ok(_) => {}
            Err(e) => {
                r.ops.check(false, || format!("store replay failed: {e}"));
            }
        }
    }
    r.trace.exit(replay);
    let Replay {
        trace,
        mut v,
        shares,
        mut ops,
        ..
    } = r;
    state.shutdown();

    v.insert(
        "fault.judge_share_pct".into(),
        v.get("fault.judge_s").copied().unwrap_or(0.0) / wall * 100.0,
    );
    shares.write_percentages(traced.wall_s, &mut v);
    v.insert(
        "fail_share".into(),
        ops.failed as f64 / ops.attempted.max(1) as f64,
    );

    let trace_path = opts.out_dir.join(format!("trace-{}.jsonl", w.name));
    if let Err(e) = std::fs::write(&trace_path, trace.to_jsonl()) {
        ops.check(false, || format!("{}: {e}", trace_path.display()));
    }
    collect(opts, ops, digests, metrics::PER_LAYER, |def| {
        Measured::single(def, v.get(def.name).copied().unwrap_or(0.0))
    })
}

/// Replay one `ffr run`: front end, golden capture and the measurement
/// phase over the points `measured` covers (all of them when `None`).
/// `prepares` is how many times the traced sequence prepared the circuit.
fn replay_run(r: &mut Replay<'_>, prepares: f64, measured: Option<&FdrTable>) -> layers::FrontEnd {
    let front = layers::replay_front_end(&mut r.trace, &mut r.v, r.p.circuit, r.p);
    r.shares.add("front_end", prepares * front.prepare_s);
    r.shares.add("golden", front.golden_s);
    layers::replay_measure(
        &mut r.trace,
        &mut r.v,
        &mut r.shares,
        &front,
        r.p,
        r.ctx.seed,
        measured,
    );
    front
}

/// Run the reference flat campaign of the workload's circuit, record
/// `savings_x`, and hand back its table.
fn reference_table(r: &mut Replay<'_>) -> Option<FdrTable> {
    let out = r.state.dir().join("reference");
    let id = r.trace.enter("reference");
    let (ref_wall, table) = reference_campaign(&mut r.ops, r.p, r.ctx.seed, &out);
    r.trace.exit(id);
    r.v.insert("savings_x".into(), ref_wall / r.wall);
    if table.is_none() {
        r.ops
            .check(false, || "the reference campaign left no table".to_string());
    }
    table
}

fn replay_estimate(r: &mut Replay<'_>) {
    let session = SessionPaths::new(&r.traced.session);
    let partial = FdrTable::load_json(&session.fdr_json()).ok();
    // `run` and `estimate` each prepare the circuit.
    let front = replay_run(r, 2.0, partial.as_ref());
    let features = layers::replay_extract(&mut r.trace, &mut r.v, &mut r.shares, &front);
    if let Some(partial) = &partial {
        let (tx, ty) = layers::training_rows(&features, partial);
        layers::replay_ml(&mut r.trace, &mut r.v, &tx, &ty, &features.to_rows());
    }
    let (kinds, grid) = layers::model_selection_of(r.p);
    let cv_fits: usize = kinds.iter().map(|k| k.small_grid(grid).len() * 5).sum();
    r.v.insert("campaign.estimate.cv_fits".into(), cv_fits as f64);
    let fit_s: f64 =
        r.v.iter()
            .filter(|(name, _)| name.starts_with("campaign.estimate.fit_s."))
            .map(|(_, s)| s)
            .sum();
    let estimate_wall = r
        .traced
        .parts
        .iter()
        .find(|(name, _)| *name == "estimate")
        .map_or(0.0, |(_, s)| *s);
    r.v.insert(
        "campaign.estimate.overhead_ms".into(),
        (estimate_wall - fit_s) * 1e3,
    );

    let reference = reference_table(r);
    let report = EstimateReport::load_json(&session.estimate_json());
    if let (Some(reference), Ok(report)) = (reference, report) {
        let err = (report.circuit_ffr - reference.circuit_fdr()).abs();
        r.v.insert("ffr_abs_err".into(), err);
        r.v.insert(
            "fdr_mae".into(),
            mae_against(
                &reference,
                report
                    .per_ff
                    .iter()
                    .map(|row| (row.index, row.fdr, !row.measured)),
            ),
        );
        r.ops.check(err <= FFR_ABS_ERR_LIMIT, || {
            format!("estimated FFR is {err:.4} from the full campaign's")
        });
    }
}

fn replay_transfer(r: &mut Replay<'_>) {
    let mut circuits = Vec::new();
    let mut eval_rows = Vec::new();
    for circuit in r.p.train.iter().chain(std::iter::once(&r.p.circuit)) {
        // Front-end values add up over the circuits the transfer prepares.
        let mut local = Values::new();
        let front = layers::replay_front_end(&mut r.trace, &mut local, circuit, r.p);
        let features = layers::replay_extract(&mut r.trace, &mut local, &mut r.shares, &front);
        for (name, value) in local {
            *r.v.entry(name).or_insert(0.0) += value;
        }
        r.shares.add("front_end", front.prepare_s);
        if *circuit == r.p.circuit {
            // Only the target's golden run is simulated by the transfer;
            // the training circuits' come from the store.
            r.shares.add("golden", front.golden_s);
            eval_rows = features.to_rows();
        } else {
            let table = workloads::train_table(r.state.dir(), circuit);
            match FdrTable::load_json(&table) {
                Ok(table) => circuits.push((circuit.to_string(), features, table)),
                Err(e) => {
                    r.ops.check(false, || format!("{}: {e}", table.display()));
                }
            }
        }
    }
    // A rate summed over circuits means nothing.
    r.v.remove("sim.dense_mops_per_s");
    let (tx, ty) =
        layers::replay_transfer_selection(&mut r.trace, &mut r.v, &mut r.shares, r.p, &circuits);
    layers::replay_ml(&mut r.trace, &mut r.v, &tx, &ty, &eval_rows);
    r.v.insert("campaign.transfer.total_s".into(), r.wall);

    let reference = reference_table(r);
    let report = TransferReport::load_json(&r.traced.session.join("transfer.json"));
    if let (Some(reference), Ok(report)) = (reference, report) {
        r.v.insert(
            "ffr_abs_err".into(),
            (report.predicted_ffr - reference.circuit_fdr()).abs(),
        );
        r.v.insert(
            "fdr_mae".into(),
            mae_against(
                &reference,
                report.per_ff.iter().map(|row| (row.index, row.fdr, true)),
            ),
        );
    }
}

/// Client-side `ffrd` metrics of the traced repetition, plus the
/// on-demand estimate endpoint (first request computes, second is
/// served from `estimate.json`).
fn service_metrics(v: &mut Values, ops: &mut Ops, state: &State, traced: &Rep) {
    let sample = &traced.service;
    let status_ms: Vec<f64> = sample.status_s.iter().map(|s| s * 1e3).collect();
    v.insert("campaign.service.submit_ms".into(), sample.submit_s * 1e3);
    v.insert(
        "campaign.service.status_p50_ms".into(),
        quantile(&status_ms, 0.5),
    );
    v.insert(
        "campaign.service.status_p95_ms".into(),
        quantile(&status_ms, 0.95),
    );
    let Some(addr) = state.service_addr() else {
        return;
    };
    let id = traced
        .session
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let path = format!("/campaigns/{id}/estimate?models=linear,knn&grid=1");
    let failed_before = ops.failed;
    let t = Instant::now();
    ops.http(addr, "GET", &path, None);
    let first_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    ops.http(addr, "GET", &path, None);
    let cached_s = t.elapsed().as_secs_f64();
    v.insert("campaign.service.estimate_first_s".into(), first_s);
    v.insert("campaign.service.estimate_cached_ms".into(), cached_s * 1e3);
    v.insert(
        "campaign.service.requests".into(),
        (sample.requests + 2) as f64,
    );
    v.insert(
        "campaign.service.failed".into(),
        (sample.failed + ops.failed - failed_before) as f64,
    );
}
