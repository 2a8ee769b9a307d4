//! Implementation of the `ffr` command-line interface.
//!
//! Subcommands:
//!
//! * `ffr run`      — start a checkpointed campaign on a named circuit,
//! * `ffr resume`   — continue an interrupted campaign session,
//! * `ffr worker`   — drain a campaign as one worker of a distributed
//!   fleet (lease-based work distribution over a shared directory),
//! * `ffr status`   — progress of a session directory (including
//!   per-worker leases and shards; `--json` for machine consumption),
//! * `ffr stats`    — merged telemetry report of a session directory
//!   (per-worker throughput, phase spans, latency histograms),
//! * `ffr estimate` — ML model selection + FDR prediction for the
//!   flip-flops a budgeted campaign did not measure,
//! * `ffr transfer` — cross-circuit estimation: train on the measured
//!   tables of ≥2 circuits, predict an unseen circuit with zero
//!   injections,
//! * `ffr report`   — render the finished FDR table (and estimate),
//! * `ffr gc`       — sweep the artifact store and/or expired leases.
//!
//! Argument parsing is hand-rolled (`--flag value` pairs) to stay
//! dependency-free; [`main_with_args`] returns the process exit code so
//! the whole CLI is unit-testable without spawning processes.
//!
//! Stderr chatter (progress, warnings) goes through the leveled
//! `ffr-obs` logger: `--quiet` keeps only errors, `-v` enables debug
//! detail, and `FFR_LOG=error|warn|info|debug` sets the default.
//! Stdout stays reserved for product output (tables, reports, `--json`
//! documents), so piping them remains safe at any verbosity.

use crate::adaptive::AdaptivePolicy;
use crate::checkpoint::CampaignCheckpoint;
use crate::estimate::{self, EstimateOptions, EstimateReport};
use crate::runner::{CancelToken, RunOutcome, RunnerOptions};
use crate::session::{self, CampaignManifest, RunRequest, SessionPaths, WorkerRequest};
use crate::spec::CircuitSpec;
use crate::store::ArtifactStore;
use crate::work;
use ffr_fault::{FailureClass, FaultKind, FdrTable, SetDeratingTable};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "\
ffr — functional-failure-rate campaign orchestration

USAGE:
    ffr run      --circuit <name> --out <dir> [options]
    ffr resume   --out <dir> [--threads N] [--stop-after-points N]
    ffr worker   --campaign <dir> --worker-id <id> [worker options]
    ffr status   --out <dir> [--json]
    ffr stats    --campaign <dir> [--json]
    ffr estimate --out <dir> [estimate options]
    ffr estimate --circuit <name> --store <dir> [run options] [estimate options]
    ffr transfer --train <spec,spec,…> --eval <spec> --store <dir>
                 [campaign options] [estimate options] [--out <file>]
    ffr report   --out <dir>
    ffr gc       [--store <dir>] [--max-age-days D | --all] [--campaign <dir>]

GLOBAL OPTIONS:
    --quiet                 only errors on stderr (suppresses progress)
    -v                      debug-level stderr logging
                            (FFR_LOG=error|warn|info|debug sets the default;
                            stdout output is unaffected either way)

WORKER OPTIONS:
    --campaign <dir>        shared campaign session directory (all workers
                            of one campaign point at the same directory)
    --worker-id <id>        stable worker identity (lease ownership; reuse
                            after a crash to reclaim own leases instantly)
    --store <dir>           artifact store for this worker (golden-run
                            cache)     [default: the manifest's store]
    --lease-points <n>      points per lease range          [default: 16]
    --lease-ttl-secs <n>    lease expiry without heartbeat  [default: 30]
    --poll-ms <n>           rescan interval while other workers hold the
                            remaining leases                [default: 200]
    run options (--circuit, --fault, --seed, …) passed to the first worker
    bootstrap an uninitialized campaign directory

RUN OPTIONS:
    --circuit <spec>        counter | lfsr | alu | traffic | mac-small | mac
                            | corpus:<id> (generated corpus circuit, e.g.
                              corpus:fifo2x4 — `cnt<w>`, `lfsr<w>x<d>`,
                              `alu<w>`, `fifo<a>x<w>`, `crc<w>`,
                              `regfile<a>x<w>`, `mix<n>s<seed>`)
                            | verilog:<path> (structural Verilog import)
    --fault <model>         seu (flip-flop upsets, default) | set
                            (combinational-net transients)
    --out <dir>             session directory (checkpoint + results)
    --store <dir>           artifact store (caches golden runs and tables)
    --seed <n>              campaign master seed            [default: 2019]
    --stim-seed <n>         stimulus seed                   [default: 1]
    --cycles <n>            testbench cycles (generic circuits) [default: 400]
    --policy <spec>         stopping policy: fixed:<n>, or
                            wilson:<half_width>@<confidence>[:<min>..<max>]
                            (e.g. fixed:170, wilson:0.05@95,
                            wilson:0.02@99:64..340)         [default: fixed:170]
    --injections <n>        shorthand for --policy fixed:<n>
    --budget <fraction>     measure only this fraction of injection points
                            (a seeded random subset; `ffr estimate` predicts
                            the rest)                       [default: 1.0]
    --threads <n>           worker threads                  [default: all cores]
    --stop-after-points <n> stop (resumably) after N retirements
    --force                 ignore a cached final table

ESTIMATE OPTIONS:
    --models <a,b,…>        models to cross-validate
                            (linear,knn,svr,ridge,tree,forest,boosting,mlp)
                            [default: linear,knn,forest,boosting,mlp]
    --folds <n>             stratified CV folds             [default: 5]
    --cv-seed <n>           fold-assignment seed            [default: 2019]
    --grid <n>              hyperparameter candidates per model [default: 3]
    --store <dir>           artifact store override
    --force                 recompute even if a report is cached

TRANSFER OPTIONS:
    --train <spec,spec,…>   ≥2 training circuit specs, each measured by a
                            prior `ffr run` with the same campaign flags
    --eval <spec>           target circuit: per-FF FDRs are predicted from
                            features alone (zero injections; one golden
                            simulation supplies the dynamic features)
    --out <file>            also write the TransferReport JSON (+ .csv)
    campaign options (--seed, --cycles, --policy, …) select which measured
    campaigns to train on; estimate options (--models, --grid, --cv-seed)
    control model selection (CV folds are leave-one-circuit-out)
";

/// Parsed `--flag value` arguments (shared with the `ffrd` entry
/// point in [`crate::service`]).
pub(crate) struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    pub(crate) fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut iter = args.iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument `{arg}`"));
            };
            let value = match iter.peek() {
                Some(next) if !next.starts_with("--") => Some(iter.next().unwrap().clone()),
                _ => None,
            };
            flags.push((name.to_string(), value));
        }
        Ok(Args { flags })
    }

    fn take(&mut self, name: &str) -> Option<Option<String>> {
        let idx = self.flags.iter().position(|(n, _)| n == name)?;
        Some(self.flags.remove(idx).1)
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    pub(crate) fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        match self.take(name) {
            None => Ok(None),
            Some(Some(v)) => Ok(Some(v)),
            Some(None) => Err(format!("--{name} requires a value")),
        }
    }

    pub(crate) fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.value(name)? {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|e| format!("--{name}: {e}")),
        }
    }

    pub(crate) fn present(&mut self, name: &str) -> Result<bool, String> {
        match self.take(name) {
            None => Ok(false),
            Some(None) => Ok(true),
            Some(Some(v)) => Err(format!("--{name} takes no value (got `{v}`)")),
        }
    }

    pub(crate) fn finish(self) -> Result<(), String> {
        match self.flags.first() {
            None => Ok(()),
            Some((name, _)) => Err(format!("unknown option `--{name}`")),
        }
    }
}

fn runner_options(args: &mut Args) -> Result<RunnerOptions, String> {
    Ok(RunnerOptions {
        threads: args.parsed::<usize>("threads")?,
        stop_after_points: args.parsed::<usize>("stop-after-points")?,
        ..RunnerOptions::default()
    })
}

/// CLI noun for a campaign's injection points.
fn point_noun(fault: FaultKind) -> &'static str {
    match fault {
        FaultKind::Seu => "flip-flops",
        FaultKind::Set => "nets",
    }
}

fn progress_printer() -> impl Fn(usize, usize) + Sync {
    |done, total| {
        if ffr_obs::log_enabled(ffr_obs::Level::Info) && (done % 16 == 0 || done == total) {
            eprint!("\r[ffr] {done}/{total} injection points retired");
            let _ = std::io::stderr().flush();
        }
    }
}

/// Finish the `\r`-style progress line (a no-op under `--quiet`, which
/// never started one).
fn end_progress_line() {
    if ffr_obs::log_enabled(ffr_obs::Level::Info) {
        eprintln!();
    }
}

/// Print the outcome of a `run` / `resume` / `worker` invocation and
/// return its exit code: 0 once the campaign is complete (its table is
/// published), 2 while it is resumable.
fn print_summary(summary: &session::RunSummary) -> i32 {
    end_progress_line();
    let noun = point_noun(summary.fault);
    if summary.table_from_cache {
        println!(
            "served from artifact cache: {} {noun}, no simulation needed",
            summary.total_points
        );
    } else {
        println!(
            "golden run: {}",
            if summary.golden_from_cache {
                "artifact cache hit"
            } else {
                "captured (cache miss)"
            }
        );
        println!(
            "progress: {}/{} {noun} retired, {} injections executed, {} shard(s) merged",
            summary.completed_points,
            summary.total_points,
            summary.total_injections,
            summary.merged_shards
        );
    }
    if let Some(path) = &summary.table_path {
        let table = match summary.fault {
            FaultKind::Seu => "FDR table",
            FaultKind::Set => "SET de-rating table",
        };
        println!("campaign complete — {table} written to {}", path.display());
        return 0;
    }
    if summary.outcome == RunOutcome::Drained {
        println!("work source drained — remaining points belong to other workers");
    }
    println!("campaign incomplete — continue with `ffr resume --out <dir>` or `ffr worker`");
    2
}

/// Parse the shared `ffr run` campaign flags into a [`RunRequest`]
/// (everything except `--out` and the runner knobs). `ffr estimate`
/// reuses this in store mode to reconstruct a campaign's fingerprint.
fn run_request_from_args(args: &mut Args) -> Result<RunRequest, String> {
    let circuit: CircuitSpec = args
        .value("circuit")?
        .ok_or("--circuit is required")?
        .parse()?;
    let mut request = RunRequest::new(circuit);
    apply_campaign_flags(args, &mut request)?;
    Ok(request)
}

/// Apply the campaign flags (everything except `--circuit`) to a
/// request. `ffr transfer` uses this on a template request that is then
/// cloned per circuit, so one set of campaign parameters fingerprints
/// every train/eval campaign identically.
fn apply_campaign_flags(args: &mut Args, request: &mut RunRequest) -> Result<(), String> {
    if let Some(fault) = args.value("fault")? {
        request.fault = FaultKind::parse_cli(&fault)?;
    }
    request.store = args.value("store")?.map(PathBuf::from);
    if let Some(seed) = args.parsed::<u64>("seed")? {
        request.seed = seed;
    }
    if let Some(seed) = args.parsed::<u64>("stim-seed")? {
        request.stim_seed = seed;
    }
    if let Some(cycles) = args.parsed::<u64>("cycles")? {
        request.cycles = cycles;
    }
    let policy = args.value("policy")?;
    let injections = args.parsed::<usize>("injections")?;
    request.policy = match (policy, injections) {
        (Some(_), Some(_)) => {
            return Err("--policy and --injections are mutually exclusive \
                        (each fully specifies the stopping rule)"
                .into())
        }
        (Some(spec), None) => spec.parse()?,
        (None, Some(0)) => return Err("--injections must be positive".into()),
        (None, Some(n)) => AdaptivePolicy::fixed(n),
        (None, None) => AdaptivePolicy::fixed(170),
    };
    if let Some(budget) = args.parsed::<f64>("budget")? {
        request.budget = budget;
    }
    Ok(())
}

fn cmd_run(mut args: Args) -> Result<i32, String> {
    let out: PathBuf = args.value("out")?.ok_or("--out is required")?.into();
    let mut request = run_request_from_args(&mut args)?;
    request.force = args.present("force")?;
    let options = runner_options(&mut args)?;
    args.finish()?;

    let summary = session::run(
        &request,
        &out,
        &options,
        &CancelToken::new(),
        progress_printer(),
    )
    .map_err(|e| e.to_string())?;
    Ok(print_summary(&summary))
}

fn cmd_resume(mut args: Args) -> Result<i32, String> {
    let out: PathBuf = args.value("out")?.ok_or("--out is required")?.into();
    let options = runner_options(&mut args)?;
    args.finish()?;
    let summary = session::resume(&out, &options, &CancelToken::new(), progress_printer())
        .map_err(|e| e.to_string())?;
    Ok(print_summary(&summary))
}

fn cmd_status(mut args: Args) -> Result<i32, String> {
    let out: PathBuf = args.value("out")?.ok_or("--out is required")?.into();
    let json = args.present("json")?;
    args.finish()?;
    let (report, fault) = crate::status::gather_status(&out)?;
    let mut stdout = std::io::stdout().lock();
    let written = if json {
        serde_json::to_string_pretty(&report)
            .map_err(std::io::Error::other)
            .and_then(|text| writeln!(stdout, "{text}"))
    } else {
        write_status(&mut stdout, &report, fault)
    };
    match written.and_then(|()| stdout.flush()) {
        // A reader that closes the pipe early (`ffr status | grep -q …`)
        // already has what it wanted.
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(format!("stdout: {e}")),
        _ => Ok(0),
    }
}

/// The human-readable `ffr status` report.
fn write_status(
    out: &mut impl std::io::Write,
    report: &crate::status::StatusReport,
    fault: FaultKind,
) -> std::io::Result<()> {
    writeln!(out, "campaign session {}", report.session)?;
    writeln!(out, "  circuit:     {}", report.circuit)?;
    writeln!(out, "  fault:       {}", report.fault)?;
    writeln!(out, "  seed:        {}", report.seed)?;
    writeln!(out, "  policy:      {}", report.policy)?;
    writeln!(out, "  fingerprint: {}", report.fingerprint)?;
    let noun = point_noun(fault);
    match &report.progress {
        Some(p) => {
            writeln!(
                out,
                "  progress:    {}/{} {noun} retired, {} injections",
                p.completed_points, p.total_points, p.injections
            )?;
            writeln!(
                out,
                "  state:       {}",
                if p.complete {
                    "complete"
                } else {
                    "resumable (run `ffr resume` or `ffr worker`)"
                }
            )?;
        }
        None => writeln!(out, "  progress:    not started")?,
    }
    if let Some(t) = &report.telemetry {
        match (t.injections_per_sec, t.eta_secs) {
            (Some(rate), Some(eta)) => {
                writeln!(out, "  rate:        {rate:.1} injections/s (ETA ~{eta} s)")?
            }
            (Some(rate), None) => writeln!(out, "  rate:        {rate:.1} injections/s")?,
            (None, _) => writeln!(out, "  rate:        not yet measurable")?,
        }
    }
    if report.shard_count > 0 {
        writeln!(
            out,
            "  shards:      {} ({} complete)",
            report.shard_count, report.complete_shards
        )?;
    }
    for w in &report.workers {
        writeln!(
            out,
            "  worker {:<12} {} active lease(s), {} shard(s), {} points retired",
            format!("{}:", w.worker),
            w.active_leases,
            w.shards,
            w.retired_points
        )?;
    }
    for lease in report.leases.iter().filter(|l| l.expired) {
        writeln!(
            out,
            "  WARNING: stale lease on points {}..{} (worker {}, expired {}s ago) — \
             reclaimed by the next worker, or sweep with `ffr gc --campaign`",
            lease.range_start, lease.range_end, lease.worker, -lease.expires_in_secs
        )?;
    }
    if let Some(table) = &report.table {
        writeln!(out, "  results:     {table}")?;
    }
    Ok(())
}

fn cmd_stats(mut args: Args) -> Result<i32, String> {
    let dir: PathBuf = match args.value("campaign")? {
        Some(dir) => dir.into(),
        // `--out` is accepted as an alias for symmetry with `ffr status`.
        None => args.value("out")?.ok_or("--campaign is required")?.into(),
    };
    let json = args.present("json")?;
    args.finish()?;
    let stats = crate::stats::CampaignStats::from_session(&dir).map_err(|e| e.to_string())?;
    if json {
        println!("{}", stats.to_json());
    } else {
        print!("{}", stats.render_text());
    }
    Ok(0)
}

fn cmd_worker(mut args: Args) -> Result<i32, String> {
    let out: PathBuf = args
        .value("campaign")?
        .ok_or("--campaign is required")?
        .into();
    let worker_id = args.value("worker-id")?.ok_or("--worker-id is required")?;
    if worker_id.is_empty() {
        return Err("--worker-id must not be empty".into());
    }
    let mut request = WorkerRequest::new(worker_id);
    if let Some(n) = args.parsed::<usize>("lease-points")? {
        if n == 0 {
            return Err("--lease-points must be positive".into());
        }
        request.lease_points = n;
    }
    if let Some(n) = args.parsed::<u64>("lease-ttl-secs")? {
        if n == 0 {
            return Err("--lease-ttl-secs must be positive".into());
        }
        request.lease_ttl = Duration::from_secs(n);
    }
    if let Some(n) = args.parsed::<u64>("poll-ms")? {
        request.poll = Duration::from_millis(n.max(1));
    }
    let options = runner_options(&mut args)?;
    // `--store` is honoured with or without bootstrap flags: a worker
    // attaching to an `ffr run`-initialized campaign still wants golden
    // runs cached.
    request.store = args.value("store")?.map(PathBuf::from);
    if args.has("circuit") {
        let mut init = run_request_from_args(&mut args)?;
        init.store = request.store.clone();
        request.init = Some(init);
    }
    args.finish()?;

    let summary = session::worker(
        &out,
        &request,
        &options,
        &CancelToken::new(),
        progress_printer(),
    )
    .map_err(|e| e.to_string())?;
    Ok(print_summary(&summary))
}

/// Parse the `ffr estimate`-specific flags (everything except `--out` /
/// `--store` and the campaign flags of store mode).
fn estimate_options_from_args(args: &mut Args) -> Result<EstimateOptions, String> {
    let mut options = EstimateOptions::default();
    for flag in ["models", "folds", "cv-seed", "grid"] {
        if let Some(value) = args.value(flag)? {
            options
                .set(&flag.replace('-', "_"), &value)
                .map_err(|e| format!("--{flag}: {e}"))?;
        }
    }
    options.force = args.present("force")?;
    Ok(options)
}

fn print_estimate_report(r: &EstimateReport) {
    println!(
        "estimate for {}: {}/{} flip-flops measured (budget {:.0} %)",
        r.circuit,
        r.measured_ffs,
        r.total_ffs,
        r.budget * 100.0
    );
    println!(
        "  {:<22} {:<26} {:>7} {:>7} {:>7} {:>7}",
        "model", "best params", "MAE", "RMSE", "EV", "R2"
    );
    for m in &r.models {
        let marker = if m.model == r.best_model { '*' } else { ' ' };
        println!(
            "{marker} {:<22} {:<26} {:>7.3} {:>7.3} {:>7.3} {:>7.3}",
            m.display_name, m.best_params, m.cv_mae, m.cv_rmse, m.cv_ev, m.cv_r2
        );
    }
    println!(
        "circuit-level FFR: {:.4} (measured-subset mean {:.4})",
        r.circuit_ffr, r.measured_fdr_mean
    );
    println!(
        "injections: {} spent vs {} for a full campaign ({:.1}x savings)",
        r.injections_spent, r.full_campaign_injections, r.injection_savings
    );
}

fn cmd_estimate(mut args: Args) -> Result<i32, String> {
    let out = args.value("out")?.map(PathBuf::from);
    let summary = match out {
        Some(out) => {
            let mut options = estimate_options_from_args(&mut args)?;
            options.store = args.value("store")?.map(PathBuf::from);
            args.finish()?;
            estimate::estimate_session(&out, &options).map_err(|e| e.to_string())?
        }
        None => {
            let request = run_request_from_args(&mut args)?;
            let options = estimate_options_from_args(&mut args)?;
            args.finish()?;
            estimate::estimate_from_store(&request, &options).map_err(|e| e.to_string())?
        }
    };
    if summary.report_from_cache {
        println!("served from artifact cache: no model was refitted");
    }
    print_estimate_report(&summary.report);
    if let Some(path) = &summary.json_path {
        println!("estimate written to {}", path.display());
    }
    Ok(0)
}

fn cmd_transfer(mut args: Args) -> Result<i32, String> {
    let train_list = args.value("train")?.ok_or("--train is required")?;
    let eval_spec = args.value("eval")?.ok_or("--eval is required")?;
    let out = args.value("out")?.map(PathBuf::from);
    let mut options = estimate_options_from_args(&mut args)?;
    // One set of campaign flags parameterizes every circuit, so the
    // train fingerprints match the `ffr run`s that measured them.
    let mut template = RunRequest::new(eval_spec.parse()?);
    apply_campaign_flags(&mut args, &mut template)?;
    args.finish()?;
    options.store = template.store.clone();
    let train: Vec<RunRequest> = train_list
        .split(',')
        .map(|spec| -> Result<RunRequest, String> {
            let mut request = template.clone();
            request.circuit = spec.trim().parse()?;
            request.circuit.validate_sources()?;
            Ok(request)
        })
        .collect::<Result<_, _>>()?;
    template.circuit.validate_sources()?;

    let summary = crate::transfer::transfer_from_store(&train, &template, &options)
        .map_err(|e| e.to_string())?;
    let report = &summary.report;
    if summary.report_from_cache {
        println!("served from artifact cache: no model was refitted");
    }
    println!(
        "transfer: {} training circuits, {} measured flip-flops, {} injections spent",
        report.train.len(),
        report.train_rows,
        report.injections_spent
    );
    println!(
        "  {:<22} {:<26} {:>7} {:>7} {:>7}",
        "model", "best params", "MAE", "RMSE", "R2"
    );
    for m in &report.models {
        let marker = if m.model == report.best_model {
            '*'
        } else {
            ' '
        };
        println!(
            "{marker} {:<22} {:<26} {:>7.3} {:>7.3} {:>7.3}",
            m.display_name, m.best_params, m.cv_mae, m.cv_rmse, m.cv_r2
        );
    }
    println!(
        "model selection: {} CV (held-out circuits only)",
        report.cv_protocol
    );
    println!("\nper-circuit holdout quality of the winner:");
    for t in &report.train {
        println!(
            "  {:<18} {:>4} FFs  MAE {:>6.3}  R2 {:>7.3}  FFR {:.4} vs measured {:.4}",
            t.circuit, t.measured_ffs, t.holdout_mae, t.holdout_r2, t.predicted_ffr, t.measured_ffr
        );
    }
    println!(
        "\npredicted FFR of {}: {:.4} over {} flip-flops ({} injections on the target)",
        report.eval_circuit, report.predicted_ffr, report.eval_total_ffs, report.eval_injections
    );
    if let Some(r) = &report.reference {
        println!(
            "measured reference: FFR {:.4} ({} FFs) — MAE {:.3}, RMSE {:.3}, R2 {:.3}, ΔFFR {:+.4}",
            r.measured_ffr, r.measured_ffs, r.mae, r.rmse, r.r2, r.ffr_delta
        );
    }
    if let Some(out) = out {
        report.save_json(&out).map_err(|e| e.to_string())?;
        let csv = out.with_extension("csv");
        crate::store::atomic_write(&csv, &report.to_csv()).map_err(|e| e.to_string())?;
        println!(
            "transfer report written to {} (+ {})",
            out.display(),
            csv.display()
        );
    }
    Ok(0)
}

fn cmd_report(mut args: Args) -> Result<i32, String> {
    let out: PathBuf = args.value("out")?.ok_or("--out is required")?.into();
    args.finish()?;
    let paths = SessionPaths::new(&out);
    let manifest = CampaignManifest::load(&paths.manifest()).map_err(|e| e.to_string())?;
    match manifest.fault {
        FaultKind::Seu => {
            let table = FdrTable::load_json(&paths.fdr_json())
                .map_err(|e| format!("no finished campaign in {}: {e}", out.display()))?;
            println!(
                "FDR table: {} flip-flops ({} covered)",
                table.num_ffs(),
                table.covered().count()
            );
            println!("circuit-level FDR: {:.4}", table.circuit_fdr());
            println!("\nfailure-class totals:");
            for (class, count) in table.class_totals() {
                if class != FailureClass::Benign && count > 0 {
                    println!("  {class:<20} {count}");
                }
            }
            println!("total injections: {}", table.injections_spent());
            println!("\nFDR histogram (10 bins):");
            print!("{}", table.histogram(10));
            if paths.estimate_json().exists() {
                let report =
                    EstimateReport::load_json(&paths.estimate_json()).map_err(|e| e.to_string())?;
                println!();
                print_estimate_report(&report);
            }
        }
        FaultKind::Set => {
            let table = SetDeratingTable::load_json(&paths.set_json())
                .map_err(|e| format!("no finished campaign in {}: {e}", out.display()))?;
            println!("SET de-rating table: {} nets covered", table.num_nets());
            println!(
                "circuit-level SET de-rating: {:.4}",
                table.circuit_derating()
            );
            println!("\nfailure-class totals:");
            for (class, count) in table.class_totals() {
                if class != FailureClass::Benign && count > 0 {
                    println!("  {class:<20} {count}");
                }
            }
            let injections: usize = table.covered().map(|r| r.injections()).sum();
            println!("total injections: {injections}");
            println!("\nde-rating histogram (10 bins):");
            print!("{}", table.histogram(10));
        }
    }
    Ok(0)
}

fn cmd_gc(mut args: Args) -> Result<i32, String> {
    let store_dir = args.value("store")?.map(PathBuf::from);
    let campaign_dir = args.value("campaign")?.map(PathBuf::from);
    let max_age_days = args.parsed::<u64>("max-age-days")?;
    let all = args.present("all")?;
    args.finish()?;
    if store_dir.is_none() && campaign_dir.is_none() {
        return Err("pass --store <dir> and/or --campaign <dir>".into());
    }
    if all && max_age_days.is_some() {
        return Err("--all and --max-age-days are mutually exclusive".into());
    }
    if store_dir.is_none() && (all || max_age_days.is_some()) {
        return Err("--all / --max-age-days apply to --store sweeps".into());
    }
    if let Some(store_dir) = store_dir {
        let max_age = if all {
            None
        } else {
            Some(Duration::from_secs(
                60 * 60 * 24 * max_age_days.unwrap_or(30),
            ))
        };
        let store = ArtifactStore::open(&store_dir).map_err(|e| e.to_string())?;
        let report = store.gc(max_age).map_err(|e| e.to_string())?;
        println!(
            "gc: removed {} artifacts ({} bytes), kept {}",
            report.removed, report.reclaimed_bytes, report.kept
        );
    }
    if let Some(campaign_dir) = campaign_dir {
        let paths = SessionPaths::new(&campaign_dir);
        let (removed, kept) =
            work::sweep_expired_leases(&paths.leases_dir()).map_err(|e| e.to_string())?;
        println!("gc: removed {removed} expired lease(s), kept {kept} live");
        // Once the merged checkpoint is durably complete, the per-range
        // shards are a redundant copy of its point records.
        let complete = CampaignCheckpoint::load(&paths.checkpoint())
            .map(|cp| cp.is_complete())
            .unwrap_or(false);
        if complete {
            let shards = work::sweep_shards(&paths.shards_dir()).map_err(|e| e.to_string())?;
            println!("gc: removed {shards} shard checkpoint(s) of the completed campaign");
            // Telemetry logs are diagnostics, not results: they are only
            // swept once the campaign is durably complete (never while
            // workers may still be appending).
            let logs =
                crate::stats::sweep_telemetry(&paths.telemetry_dir()).map_err(|e| e.to_string())?;
            if logs > 0 {
                println!("gc: removed {logs} telemetry log(s) of the completed campaign");
            }
        }
    }
    Ok(0)
}

/// Run the CLI with explicit arguments (exit-code return; testable).
///
/// The stderr verbosity flags (`--quiet`, `-v`) are consumed here, before
/// subcommand parsing, so they work in any position; `FFR_LOG` sets the
/// default level.
pub fn main_with_args(args: &[String]) -> i32 {
    ffr_obs::init_log_from_env();
    let mut argv: Vec<String> = Vec::with_capacity(args.len());
    for arg in args {
        match arg.as_str() {
            "--quiet" => ffr_obs::set_log_level(ffr_obs::Level::Error),
            "-v" | "--verbose" => ffr_obs::set_log_level(ffr_obs::Level::Debug),
            _ => argv.push(arg.clone()),
        }
    }
    let Some((command, rest)) = argv.split_first() else {
        eprint!("{USAGE}");
        return 64;
    };
    let parsed = match Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            ffr_obs::error!("error: {e}");
            return 64;
        }
    };
    let result = match command.as_str() {
        "run" => cmd_run(parsed),
        "resume" => cmd_resume(parsed),
        "worker" => cmd_worker(parsed),
        "status" => cmd_status(parsed),
        "stats" => cmd_stats(parsed),
        "estimate" => cmd_estimate(parsed),
        "transfer" => cmd_transfer(parsed),
        "report" => cmd_report(parsed),
        "gc" => cmd_gc(parsed),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return 0;
        }
        other => Err(format!("unknown command `{other}`; try `ffr help`")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            ffr_obs::error!("error: {e}");
            64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arg_parser_basics() {
        let mut args =
            Args::parse(&strs(&["--circuit", "counter", "--force", "--seed", "9"])).unwrap();
        assert_eq!(args.value("circuit").unwrap().as_deref(), Some("counter"));
        assert!(args.present("force").unwrap());
        assert_eq!(args.parsed::<u64>("seed").unwrap(), Some(9));
        args.finish().unwrap();

        let mut args = Args::parse(&strs(&["--unknown", "x"])).unwrap();
        let _ = args.take("other");
        assert!(args.finish().is_err());
        assert!(Args::parse(&strs(&["positional"])).is_err());
    }

    #[test]
    fn policy_flag_parsing_and_exclusivity() {
        let request = |flags: &[&str]| -> Result<crate::session::RunRequest, String> {
            let mut all = vec!["--circuit", "counter"];
            all.extend_from_slice(flags);
            let mut args = Args::parse(&strs(&all)).unwrap();
            let request = run_request_from_args(&mut args)?;
            args.finish()?;
            Ok(request)
        };

        // --policy takes the canonical spec grammar…
        let r = request(&["--policy", "wilson:0.05@95:64..170"]).unwrap();
        assert_eq!(r.policy.to_string(), "wilson:0.05@95:64..170");
        let r = request(&["--policy", "fixed:96"]).unwrap();
        assert_eq!(r.policy, AdaptivePolicy::fixed(96));

        // …the `--injections` shorthand still works…
        let r = request(&["--injections", "64"]).unwrap();
        assert_eq!(r.policy, AdaptivePolicy::fixed(64));
        let r = request(&[]).unwrap();
        assert_eq!(r.policy, AdaptivePolicy::fixed(170));

        // …and the two notations are mutually exclusive.
        let err = request(&["--policy", "fixed:96", "--injections", "64"]).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        assert!(request(&["--policy", "bogus:1"]).is_err());
        assert!(request(&["--injections", "0"]).is_err());
    }

    #[test]
    fn unknown_command_fails_cleanly() {
        assert_eq!(main_with_args(&strs(&["frobnicate"])), 64);
        assert_eq!(main_with_args(&strs(&["help"])), 0);
        assert_eq!(main_with_args(&[]), 64);
    }

    #[test]
    fn end_to_end_run_kill_resume_via_cli() {
        let base = std::env::temp_dir().join(format!("ffr_cli_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let out = base.join("session");
        let store = base.join("store");
        let out_s = out.to_string_lossy().into_owned();
        let store_s = store.to_string_lossy().into_owned();

        // Run with an injected stop after 2 FFs (simulated kill).
        let code = main_with_args(&strs(&[
            "run",
            "--circuit",
            "counter",
            "--out",
            &out_s,
            "--store",
            &store_s,
            "--cycles",
            "160",
            "--injections",
            "64",
            "--stop-after-points",
            "2",
        ]));
        assert_eq!(code, 2, "interrupted run exits with 2");
        assert!(out.join("checkpoint.json").exists());
        assert!(!out.join("fdr.json").exists());

        // Status works on the partial session.
        assert_eq!(main_with_args(&strs(&["status", "--out", &out_s])), 0);

        // Resume to completion.
        let code = main_with_args(&strs(&["resume", "--out", &out_s]));
        assert_eq!(code, 0);
        assert!(out.join("fdr.json").exists());
        assert_eq!(main_with_args(&strs(&["report", "--out", &out_s])), 0);

        // A fresh run with identical parameters is served from the cache.
        let out2 = base.join("session2");
        let out2_s = out2.to_string_lossy().into_owned();
        let code = main_with_args(&strs(&[
            "run",
            "--circuit",
            "counter",
            "--out",
            &out2_s,
            "--store",
            &store_s,
            "--cycles",
            "160",
            "--injections",
            "64",
        ]));
        assert_eq!(code, 0);
        assert_eq!(
            std::fs::read(out.join("fdr.json")).unwrap(),
            std::fs::read(out2.join("fdr.json")).unwrap()
        );

        // gc --all empties the store.
        assert_eq!(
            main_with_args(&strs(&["gc", "--store", &store_s, "--all"])),
            0
        );
    }

    #[test]
    fn set_campaign_via_cli_kill_resume_report() {
        let base = std::env::temp_dir().join(format!("ffr_cli_set_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let out = base.join("session");
        let out_s = out.to_string_lossy().into_owned();

        // Interrupted SET run…
        let code = main_with_args(&strs(&[
            "run",
            "--circuit",
            "counter",
            "--fault",
            "set",
            "--out",
            &out_s,
            "--cycles",
            "160",
            "--injections",
            "48",
            "--stop-after-points",
            "2",
        ]));
        assert_eq!(code, 2, "interrupted run exits with 2");
        assert!(out.join("checkpoint.json").exists());
        assert!(!out.join("set-derating.json").exists());

        // …resumes to a SET de-rating table and reports it.
        assert_eq!(main_with_args(&strs(&["resume", "--out", &out_s])), 0);
        assert!(out.join("set-derating.json").exists());
        assert!(out.join("set-derating.csv").exists());
        assert_eq!(main_with_args(&strs(&["status", "--out", &out_s])), 0);
        assert_eq!(main_with_args(&strs(&["report", "--out", &out_s])), 0);

        // Unknown fault model fails cleanly.
        let code = main_with_args(&strs(&[
            "run",
            "--circuit",
            "counter",
            "--fault",
            "sbu",
            "--out",
            &out_s,
        ]));
        assert_eq!(code, 64);

        let _ = std::fs::remove_dir_all(&base);
    }
}
