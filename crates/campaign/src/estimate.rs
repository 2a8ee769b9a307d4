//! `ffr estimate` — the ML-assisted estimation stage of the paper's flow.
//!
//! A (possibly budgeted) SEU campaign leaves behind a partial FDR table:
//! measured Functional De-Rating factors for the fault-injected flip-flop
//! subset. This module turns that table into a complete circuit estimate
//! **without simulating anything**:
//!
//! 1. load the partial FDR table (session file, or artifact store),
//! 2. obtain the per-flip-flop feature matrix — served from the store
//!    when cached (keyed by netlist hash + stimulus config + feature
//!    schema version), otherwise extracted from the cached golden run,
//! 3. hand the measured rows, stratified CV folds and every flip-flop's
//!    feature row to the workspace's one estimation pipeline
//!    ([`ffr_core::estimate()`]): cross-validated model selection over a
//!    set of [`ModelKind`]s, each with a small fixed-seed grid budget,
//!    then the winner trained on the measured subset predicts every row,
//! 4. overlay the measured values on the predictions,
//! 5. emit a versioned [`EstimateReport`]: per-flip-flop FDRs with
//!    provenance, per-model CV scores (the paper's Table I metrics),
//!    the circuit-level FFR, and the injection savings vs a full
//!    campaign (Tables IV/V of the journal version).
//!
//! Everything downstream of the table is a pure function of fixed seeds,
//! so rerunning `ffr estimate` produces a **byte-identical**
//! `estimate.json` — asserted end-to-end by
//! `crates/campaign/tests/cli_estimate.rs`.

use crate::session::{self, CampaignManifest, RunRequest, SessionPaths};
use crate::spec::PreparedCircuit;
use crate::store::{ArtifactKind, ArtifactStore, StoreKey};
use ffr_core::ModelKind;
use ffr_fault::{FaultKind, FdrTable};
use ffr_features::FeatureMatrix;
use ffr_ml::model_selection::StratifiedKFold;
use ffr_netlist::FfId;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};

/// Estimate report format version; bump on breaking shape changes.
pub(crate) const REPORT_VERSION: u32 = 1;

/// The model kinds `ffr estimate` evaluates by default: the paper's
/// linear + k-NN models plus the strongest future-work ensemble/neural
/// models. SVR is excluded by default only because its fit cost dwarfs
/// the others on large circuits; add it with `--models`.
pub(crate) const DEFAULT_MODELS: [ModelKind; 5] = [
    ModelKind::LinearLeastSquares,
    ModelKind::Knn,
    ModelKind::RandomForest,
    ModelKind::GradientBoosting,
    ModelKind::Mlp,
];

/// Tuning knobs of an estimation run.
#[derive(Debug, Clone)]
pub struct EstimateOptions {
    /// Model kinds to cross-validate (winner predicts).
    pub models: Vec<ModelKind>,
    /// Stratified CV folds (clamped to the measured-subset size).
    pub folds: usize,
    /// Fold-assignment seed.
    pub cv_seed: u64,
    /// Hyperparameter candidates evaluated per model kind (the small
    /// grid-search budget; 1 = tuned defaults only).
    pub grid_budget: usize,
    /// Artifact store override (defaults to the session's store).
    pub store: Option<PathBuf>,
    /// Recompute even if a cached report exists in the store.
    pub force: bool,
}

impl Default for EstimateOptions {
    fn default() -> EstimateOptions {
        EstimateOptions {
            models: DEFAULT_MODELS.to_vec(),
            folds: 5,
            cv_seed: 2019,
            grid_budget: 3,
            store: None,
            force: false,
        }
    }
}

impl EstimateOptions {
    /// Set one model-selection knob from its textual form — the one
    /// validating parser behind the `ffr estimate` / `ffr transfer` flags
    /// (`--models`, `--folds`, `--grid`, `--cv-seed`) and the `ffrd`
    /// `/estimate` query string (`models`, `folds`, `grid`, `cv_seed`).
    ///
    /// # Errors
    ///
    /// Refuses an unknown key, an unparsable value, an unknown or empty
    /// model name, `folds < 2` and `grid = 0`; the message does not name
    /// the key (callers prefix their own spelling of it).
    pub(crate) fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let bad = |e: std::num::ParseIntError| e.to_string();
        match key {
            "models" => {
                self.models = value
                    .split(',')
                    .map(|m| ModelKind::parse_cli(m.trim()))
                    .collect::<Result<_, _>>()?;
            }
            "folds" => {
                self.folds = value.parse().map_err(bad)?;
                if self.folds < 2 {
                    return Err("must be at least 2".into());
                }
            }
            "grid" => {
                self.grid_budget = value.parse().map_err(bad)?;
                if self.grid_budget == 0 {
                    return Err("must be positive".into());
                }
            }
            "cv_seed" => self.cv_seed = value.parse().map_err(bad)?,
            _ => return Err("unknown estimate option".into()),
        }
        Ok(())
    }
}

/// Cross-validated scores of one evaluated model (mean over test folds;
/// the paper's Table I metric bundle).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelReport {
    /// CLI token of the model kind ([`ModelKind::cli_name`]).
    pub model: String,
    /// Display name matching the paper's table rows.
    pub display_name: String,
    /// Winning hyperparameters of the model's small grid.
    pub best_params: String,
    /// Mean Absolute Error.
    pub cv_mae: f64,
    /// Maximum Absolute Error.
    pub cv_max: f64,
    /// Root Mean Squared Error.
    pub cv_rmse: f64,
    /// Explained Variance.
    pub cv_ev: f64,
    /// Coefficient of determination.
    pub cv_r2: f64,
}

/// One flip-flop's estimate in the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FfEstimateRow {
    /// Flip-flop instance name.
    pub ff: String,
    /// Flip-flop index (`FfId` order).
    pub index: usize,
    /// Estimated (or measured) Functional De-Rating factor.
    pub fdr: f64,
    /// `true` if the value was measured by fault injection.
    pub measured: bool,
}

/// The complete output of one `ffr estimate` run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimateReport {
    /// Report format version; [`EstimateReport::load_json`] rejects any
    /// other.
    pub version: u32,
    /// Circuit spec string of the campaign.
    pub circuit: String,
    /// Campaign fingerprint the estimate is derived from.
    pub campaign_fingerprint: String,
    /// Measurement budget of the campaign (fraction of flip-flops).
    pub budget: f64,
    /// Fault-injected flip-flops (the training set).
    pub measured_ffs: usize,
    /// All flip-flops of the circuit.
    pub total_ffs: usize,
    /// Stratified CV folds used for model selection.
    pub cv_folds: usize,
    /// Fold-assignment seed.
    pub cv_seed: u64,
    /// Per-model cross-validation results, in evaluation order.
    pub models: Vec<ModelReport>,
    /// CLI token of the winning model (highest CV R²).
    pub best_model: String,
    /// Mean FDR over the measured subset only.
    pub measured_fdr_mean: f64,
    /// Circuit-level FFR: mean FDR over **all** flip-flops, measured and
    /// predicted (assuming a uniform raw SEU rate per flip-flop).
    pub circuit_ffr: f64,
    /// Fault-injection simulations the budgeted campaign actually spent.
    pub injections_spent: usize,
    /// Simulations a full flat campaign would spend (`total_ffs ×
    /// max injections per point`).
    pub full_campaign_injections: usize,
    /// Cost reduction: `full_campaign_injections / injections_spent`.
    pub injection_savings: f64,
    /// Per-flip-flop estimates, in `FfId` order.
    pub per_ff: Vec<FfEstimateRow>,
}

impl EstimateReport {
    /// Render the per-flip-flop table as CSV
    /// (`ff,index,fdr,source`).
    pub(crate) fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("ff,index,fdr,source\n");
        for row in &self.per_ff {
            let _ = writeln!(
                out,
                "{},{},{:.6},{}",
                row.ff,
                row.index,
                row.fdr,
                if row.measured {
                    "measured"
                } else {
                    "predicted"
                }
            );
        }
        out
    }

    /// Save as pretty JSON (atomic rename).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub(crate) fn save_json(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self).map_err(io::Error::other)?;
        crate::store::atomic_write(path, &json)
    }

    /// Load a report written by `ffr estimate`.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, undecodable files or a version mismatch; like
    /// the manifest and checkpoint loaders, the version is probed before
    /// full deserialization so foreign versions report the real cause.
    pub fn load_json(path: &Path) -> io::Result<EstimateReport> {
        crate::store::load_versioned(path, "estimate report", REPORT_VERSION)
    }
}

/// Outcome summary of an estimation run.
#[derive(Debug)]
pub struct EstimateSummary {
    /// The computed (or cache-served) report.
    pub report: EstimateReport,
    /// Path of `estimate.json`, when a session directory was written.
    pub json_path: Option<PathBuf>,
    /// `true` if the report was served from the artifact store.
    pub report_from_cache: bool,
    /// `true` if the feature matrix came from the artifact store.
    pub features_from_cache: bool,
}

/// Everything one estimation needs, however its entry point found it
/// (session directory or store alone).
struct EstimateInputs {
    prepared: PreparedCircuit,
    circuit: String,
    fingerprint: String,
    budget: f64,
    max_injections_per_point: usize,
    table: FdrTable,
    store: Option<ArtifactStore>,
    recorder: ffr_obs::Recorder,
}

/// Run the estimation stage on a campaign session directory: read the
/// manifest and partial FDR table, compute (or cache-serve) the report,
/// and write `estimate.json` / `estimate.csv` next to the table.
///
/// # Errors
///
/// Fails on I/O errors, a missing/incomplete session, a SET session, or
/// fewer than two measured flip-flops.
pub fn estimate_session(out_dir: &Path, options: &EstimateOptions) -> io::Result<EstimateSummary> {
    let paths = SessionPaths::new(out_dir);
    let manifest = CampaignManifest::load(&paths.manifest()).map_err(|e| {
        io::Error::other(format!(
            "no campaign session in {} ({e})",
            out_dir.display()
        ))
    })?;
    if manifest.fault != FaultKind::Seu {
        return Err(io::Error::other(
            "ffr estimate needs an SEU campaign (per-flip-flop FDR); \
             this session ran a SET campaign",
        ));
    }
    let circuit: crate::spec::CircuitSpec = manifest.circuit.parse().map_err(io::Error::other)?;
    let store = options
        .store
        .clone()
        .or_else(|| manifest.store.as_ref().map(PathBuf::from))
        .map(ArtifactStore::open)
        .transpose()?;

    // The partial FDR table: the session file is authoritative; fall back
    // to the store (the table artifact shares the campaign fingerprint).
    let table = match FdrTable::load_json(&paths.fdr_json()) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let key = session::parse_key(&manifest.fingerprint)?;
            store
                .as_ref()
                .and_then(|s| s.get::<FdrTable>(ArtifactKind::FdrTable, &key).transpose())
                .transpose()?
                .ok_or_else(|| {
                    io::Error::other(format!(
                        "campaign in {} has no FDR table yet — finish it with `ffr resume`",
                        out_dir.display()
                    ))
                })?
        }
        Err(e) => return Err(e),
    };

    let inputs = EstimateInputs {
        prepared: circuit.prepare(manifest.stim_seed, manifest.cycles),
        circuit: manifest.circuit,
        fingerprint: manifest.fingerprint,
        budget: manifest.budget,
        max_injections_per_point: manifest.policy.max_injections,
        table,
        store,
        recorder: ffr_obs::Recorder::for_session(out_dir, "estimate"),
    };
    let mut summary = inputs.estimate(options)?;
    summary.report.save_json(&paths.estimate_json())?;
    crate::store::atomic_write(&paths.estimate_csv(), &summary.report.to_csv())?;
    summary.json_path = Some(paths.estimate_json());
    inputs.recorder.finish();
    Ok(summary)
}

/// Run the estimation stage without a session directory: everything is
/// resolved from the artifact store of a previous `ffr run` with the same
/// parameters (`request` must match that run exactly — it determines the
/// campaign fingerprint). The report artifact is written back to the
/// store; no session files are produced.
///
/// # Errors
///
/// Fails on I/O errors, a non-SEU request, or when the store holds no
/// final table for the fingerprint.
pub(crate) fn estimate_from_store(
    request: &RunRequest,
    options: &EstimateOptions,
) -> io::Result<EstimateSummary> {
    if request.fault != FaultKind::Seu {
        return Err(io::Error::other(
            "ffr estimate needs an SEU campaign (per-flip-flop FDR)",
        ));
    }
    let store_path = options
        .store
        .clone()
        .or_else(|| request.store.clone())
        .ok_or_else(|| io::Error::other("estimate without --out requires --store"))?;
    let store = ArtifactStore::open(&store_path)?;
    let prepared = request.circuit.prepare(request.stim_seed, request.cycles);
    let table_key = session::campaign_table_key(request, &prepared);
    let table: FdrTable = store
        .get(ArtifactKind::FdrTable, &table_key)?
        .ok_or_else(|| {
            io::Error::other(format!(
                "store {} holds no FDR table for this campaign \
                 (fingerprint {table_key}) — run `ffr run` with the same \
                 parameters first",
                store_path.display()
            ))
        })?;
    EstimateInputs {
        prepared,
        circuit: request.circuit.spec_string(),
        fingerprint: table_key.to_string(),
        budget: request.budget,
        max_injections_per_point: request.policy.max_injections,
        table,
        store: Some(store),
        recorder: ffr_obs::Recorder::disabled(),
    }
    .estimate(options)
}

impl EstimateInputs {
    /// Validate the inputs, then compute the report or serve it from
    /// the store's report cache.
    fn estimate(&self, options: &EstimateOptions) -> io::Result<EstimateSummary> {
        if options.models.is_empty() {
            return Err(io::Error::other("no models selected"));
        }
        check_trainable(&self.table, self.prepared.cc.num_ffs()).map_err(io::Error::other)?;

        // Report cache: keyed by the campaign fingerprint plus every
        // estimation knob.
        let report_desc = format!(
            "estimate;of={};models={};folds={};cv_seed={};grid={};report_v={REPORT_VERSION}",
            self.fingerprint,
            model_names(&options.models),
            options.folds,
            options.cv_seed,
            options.grid_budget
        );
        let report_key = StoreKey::of(self.prepared.cc.netlist(), &report_desc);
        let mut features_from_cache = false;
        let (report, report_from_cache) = cached_report(
            self.store.as_ref(),
            ArtifactKind::Report,
            &report_key,
            options.force,
            || self.compute(options, &mut features_from_cache),
        )?;
        Ok(EstimateSummary {
            report,
            json_path: None,
            report_from_cache,
            features_from_cache,
        })
    }

    /// The computation behind the report cache: features →
    /// [`ffr_core::estimate()`] over stratified folds → overlay the
    /// measured values → report.
    fn compute(
        &self,
        options: &EstimateOptions,
        features_from_cache: &mut bool,
    ) -> io::Result<EstimateReport> {
        let (table, store) = (&self.table, self.store.as_ref());
        let (features, from_cache) = load_or_extract_features(&self.prepared, store)?;
        *features_from_cache = from_cache;
        let rows = features.to_rows();
        let (tx, ty) = ffr_core::measured_rows(table, &rows);
        self.publish_dataset()?;

        // Stratified CV over the measured subset (every fold sees the full
        // FDR range); fold count clamps to the subset size.
        let cv_folds = options.folds.clamp(2, ty.len());
        let folds = StratifiedKFold::new(cv_folds, options.cv_seed).split(&ty);
        let estimate = ffr_core::estimate(
            &tx,
            &ty,
            &folds,
            &options.models,
            options.grid_budget,
            &rows,
            &self.recorder,
        );

        let per_ff: Vec<FfEstimateRow> = (0..rows.len())
            .map(|index| {
                let measured = table.fdr(FfId::from_index(index));
                FfEstimateRow {
                    ff: features.ff_names()[index].clone(),
                    index,
                    fdr: measured.unwrap_or(estimate.predictions[index]),
                    measured: measured.is_some(),
                }
            })
            .collect();
        let injections_spent = table.injections_spent();
        let full_campaign_injections = rows.len() * self.max_injections_per_point;
        Ok(EstimateReport {
            version: REPORT_VERSION,
            circuit: self.circuit.clone(),
            campaign_fingerprint: self.fingerprint.clone(),
            budget: self.budget,
            measured_ffs: ty.len(),
            total_ffs: rows.len(),
            cv_folds,
            cv_seed: options.cv_seed,
            models: model_reports(&estimate.models),
            best_model: estimate.winner.kind().cli_name().to_string(),
            measured_fdr_mean: table.circuit_fdr(),
            circuit_ffr: per_ff.iter().map(|r| r.fdr).sum::<f64>() / rows.len() as f64,
            injections_spent,
            full_campaign_injections,
            injection_savings: if injections_spent == 0 {
                0.0
            } else {
                full_campaign_injections as f64 / injections_spent as f64
            },
            per_ff,
        })
    }

    /// The train dataset rows `(ff index, measured FDR)` as a store
    /// artifact, so external tooling can reproduce the training set of a
    /// report.
    fn publish_dataset(&self) -> io::Result<()> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        let dataset_key = StoreKey::of(
            self.prepared.cc.netlist(),
            &format!(
                "train-dataset;of={};{}",
                self.fingerprint,
                ffr_features::schema_desc()
            ),
        );
        let measured: Vec<(usize, f64)> = self
            .table
            .covered()
            .map(|r| (r.ff().index(), r.fdr()))
            .collect();
        store.put(ArtifactKind::Dataset, &dataset_key, &measured)?;
        Ok(())
    }
}

/// Whether `table` can train a model for a circuit with `total_ffs`
/// flip-flops: it must describe that circuit and cover at least two of
/// them.
pub(crate) fn check_trainable(table: &FdrTable, total_ffs: usize) -> Result<(), String> {
    if table.num_ffs() != total_ffs {
        return Err(format!(
            "FDR table covers {} flip-flops but the circuit has {total_ffs}",
            table.num_ffs()
        ));
    }
    let measured_ffs = table.covered().count();
    if measured_ffs < 2 {
        return Err(format!(
            "need at least 2 measured flip-flops to train on (got {measured_ffs})"
        ));
    }
    Ok(())
}

/// The report-cache discipline of `ffr estimate` and `ffr transfer`:
/// serve `key` from the store unless `force`d, otherwise `compute` the
/// report and publish it. Returns the report and whether it was
/// cache-served.
pub(crate) fn cached_report<R: Serialize + Deserialize>(
    store: Option<&ArtifactStore>,
    kind: ArtifactKind,
    key: &StoreKey,
    force: bool,
    compute: impl FnOnce() -> io::Result<R>,
) -> io::Result<(R, bool)> {
    if let (Some(store), false) = (store, force) {
        if let Some(report) = store.get::<R>(kind, key)? {
            return Ok((report, true));
        }
    }
    let report = compute()?;
    if let Some(store) = store {
        store.put(kind, key, &report)?;
    }
    Ok((report, false))
}

/// The `models=` component of a report cache key.
pub(crate) fn model_names(models: &[ModelKind]) -> String {
    let names: Vec<&str> = models.iter().map(|m| m.cli_name()).collect();
    names.join(",")
}

/// The pipeline's per-kind CV results in report form.
pub(crate) fn model_reports(models: &[ffr_core::ModelCv]) -> Vec<ModelReport> {
    models
        .iter()
        .map(|m| ModelReport {
            model: m.best.kind().cli_name().to_string(),
            display_name: m.best.kind().display_name().to_string(),
            best_params: m.best.label().to_string(),
            cv_mae: m.scores.mae,
            cv_max: m.scores.max,
            cv_rmse: m.scores.rmse,
            cv_ev: m.scores.ev,
            cv_r2: m.scores.r2,
        })
        .collect()
}

/// The feature matrix for a prepared circuit: served from the store when
/// cached, otherwise extracted from the (cached or captured) golden run
/// and published back. The cache key covers the netlist structure, the
/// stimulus configuration and the feature schema version, so a schema
/// bump or stimulus change invalidates cleanly.
pub(crate) fn load_or_extract_features(
    prepared: &PreparedCircuit,
    store: Option<&ArtifactStore>,
) -> io::Result<(FeatureMatrix, bool)> {
    let features_desc = format!("{};{}", prepared.config_desc, ffr_features::schema_desc());
    let features_key = StoreKey::of(prepared.cc.netlist(), &features_desc);
    if let Some(store) = store {
        if let Some(m) = store.get::<FeatureMatrix>(ArtifactKind::Features, &features_key)? {
            return Ok((m, true));
        }
    }
    // The golden run is only needed for the dynamic feature columns; it
    // shares the campaign driver's cache discipline (`session::golden_for`),
    // so an estimate after a campaign never re-simulates it.
    let (golden, _) = session::golden_for(prepared, store)?;
    let features = ffr_features::extract_features(&prepared.cc, &golden.activity);
    if let Some(store) = store {
        store.put(ArtifactKind::Features, &features_key, &features)?;
    }
    Ok((features, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptivePolicy;
    use crate::runner::{CancelToken, RunnerOptions};
    use crate::spec::CircuitSpec;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ffr_estimate_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn budgeted_request(store: Option<PathBuf>) -> RunRequest {
        RunRequest {
            circuit: CircuitSpec::Lfsr { width: 8, depth: 2 },
            fault: FaultKind::Seu,
            stim_seed: 1,
            cycles: 200,
            seed: 5,
            policy: AdaptivePolicy::fixed(48),
            budget: 0.4,
            store,
            force: false,
        }
    }

    fn run_campaign(request: &RunRequest, out: &Path) {
        session::run(
            request,
            out,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
    }

    fn quick_options() -> EstimateOptions {
        EstimateOptions {
            models: vec![
                ModelKind::LinearLeastSquares,
                ModelKind::Knn,
                ModelKind::RandomForest,
                ModelKind::GradientBoosting,
            ],
            folds: 4,
            grid_budget: 2,
            ..EstimateOptions::default()
        }
    }

    #[test]
    fn option_setter_validates_every_knob() {
        let mut options = EstimateOptions::default();
        for (key, value) in [
            ("models", "knn, forest"),
            ("folds", "4"),
            ("grid", "1"),
            ("cv_seed", "9"),
        ] {
            options.set(key, value).unwrap();
        }
        assert_eq!(options.models, [ModelKind::Knn, ModelKind::RandomForest]);
        assert_eq!(
            (options.folds, options.grid_budget, options.cv_seed),
            (4, 1, 9)
        );
        for (key, value) in [
            ("modls", "linear"),
            ("models", ""),
            ("models", "knn,perceptron"),
            ("folds", "1"),
            ("folds", "many"),
            ("grid", "0"),
            ("cv_seed", "-1"),
            ("force", "1"),
        ] {
            assert!(options.set(key, value).is_err(), "{key}={value}");
        }
    }

    #[test]
    fn estimate_session_produces_complete_deterministic_report() {
        let out = tmp_dir("session");
        let store_dir = tmp_dir("session_store");
        let request = budgeted_request(Some(store_dir));
        run_campaign(&request, &out);

        let options = quick_options();
        let summary = estimate_session(&out, &options).unwrap();
        assert!(!summary.report_from_cache);
        let report = &summary.report;
        assert_eq!(report.version, REPORT_VERSION);
        assert_eq!(report.models.len(), 4);
        assert_eq!(report.total_ffs, report.per_ff.len());
        assert!(report.measured_ffs < report.total_ffs);
        assert_eq!(
            report.per_ff.iter().filter(|r| r.measured).count(),
            report.measured_ffs
        );
        assert!(report.per_ff.iter().all(|r| (0.0..=1.0).contains(&r.fdr)));
        assert!((0.0..=1.0).contains(&report.circuit_ffr));
        assert!(report.injection_savings > 1.0, "budgeted campaign saves");
        let json = std::fs::read(out.join("estimate.json")).unwrap();
        let csv = std::fs::read_to_string(out.join("estimate.csv")).unwrap();
        assert_eq!(csv.lines().count(), report.total_ffs + 1);

        // A forced rerun recomputes (features now cache-served) and is
        // byte-identical.
        let forced = EstimateOptions {
            force: true,
            ..options.clone()
        };
        let summary2 = estimate_session(&out, &forced).unwrap();
        assert!(!summary2.report_from_cache);
        assert!(summary2.features_from_cache);
        assert_eq!(json, std::fs::read(out.join("estimate.json")).unwrap());

        // An unforced rerun is served from the report artifact.
        let summary3 = estimate_session(&out, &options).unwrap();
        assert!(summary3.report_from_cache);
        assert_eq!(summary3.report, summary.report);
        assert_eq!(json, std::fs::read(out.join("estimate.json")).unwrap());
    }

    #[test]
    fn estimate_from_store_needs_no_session() {
        let out = tmp_dir("storemode");
        let store_dir = tmp_dir("storemode_store");
        let request = budgeted_request(Some(store_dir.clone()));
        run_campaign(&request, &out);
        // Wipe the session; the store still holds golden run + table.
        std::fs::remove_dir_all(&out).unwrap();

        let summary = estimate_from_store(&request, &quick_options()).unwrap();
        assert!(summary.json_path.is_none());
        assert_eq!(summary.report.total_ffs, summary.report.per_ff.len());

        // The report landed in the store: a session-less rerun serves it.
        let summary2 = estimate_from_store(&request, &quick_options()).unwrap();
        assert!(summary2.report_from_cache);
        assert_eq!(summary2.report, summary.report);
    }

    #[test]
    fn set_sessions_are_rejected() {
        let out = tmp_dir("set");
        let mut request = budgeted_request(None);
        request.fault = FaultKind::Set;
        request.budget = 1.0;
        run_campaign(&request, &out);
        let err = estimate_session(&out, &quick_options()).unwrap_err();
        assert!(err.to_string().contains("SEU"), "{err}");
    }

    #[test]
    fn incomplete_session_is_rejected() {
        let out = tmp_dir("incomplete");
        let request = budgeted_request(None);
        session::run(
            &request,
            &out,
            &RunnerOptions {
                stop_after_points: Some(1),
                ..RunnerOptions::default()
            },
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        let err = estimate_session(&out, &quick_options()).unwrap_err();
        assert!(err.to_string().contains("resume"), "{err}");
    }

    #[test]
    fn report_artifact_honours_version_kind_and_key_guards() {
        // Regression for the envelope guards on the `report` kind: a
        // version/kind/key mismatch must degrade to a cache miss exactly
        // like the older artifact kinds, and a tampered payload version
        // must be reported as such by the session-file loader (mirroring
        // the checkpoint v1/v2 probes).
        let out = tmp_dir("guards");
        let store_dir = tmp_dir("guards_store");
        let request = budgeted_request(Some(store_dir.clone()));
        run_campaign(&request, &out);
        let options = quick_options();
        estimate_session(&out, &options).unwrap();

        let store = ArtifactStore::open(&store_dir).unwrap();
        let reports: Vec<_> = store
            .list()
            .unwrap()
            .into_iter()
            .filter(|a| a.kind == ArtifactKind::Report)
            .collect();
        assert_eq!(reports.len(), 1, "estimate published one report");
        let path = reports[0].path.clone();
        let key_str = reports[0].file_name.trim_end_matches(".json").to_string();
        let key = session::parse_key(&key_str).unwrap();

        // Sanity: the guarded read round-trips.
        let loaded: Option<EstimateReport> = store.get(ArtifactKind::Report, &key).unwrap();
        assert!(loaded.is_some());
        // Wrong kind and wrong key are misses.
        let wrong_kind: Option<EstimateReport> = store.get(ArtifactKind::Dataset, &key).unwrap();
        assert!(wrong_kind.is_none());
        let wrong_key: Option<EstimateReport> = store
            .get(
                ArtifactKind::Report,
                &StoreKey {
                    netlist: key.netlist ^ 1,
                    config: key.config,
                },
            )
            .unwrap();
        assert!(wrong_key.is_none());
        // A foreign envelope format version is a miss, not a decode error.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            text.replace("\"format_version\":1", "\"format_version\":999"),
        )
        .unwrap();
        let stale: Option<EstimateReport> = store.get(ArtifactKind::Report, &key).unwrap();
        assert!(stale.is_none());

        // The session-file loader probes the report version first, like
        // the checkpoint/manifest loaders do.
        let json_path = out.join("estimate.json");
        let text = std::fs::read_to_string(&json_path).unwrap();
        std::fs::write(
            &json_path,
            text.replacen("\"version\": 1", "\"version\": 99", 1),
        )
        .unwrap();
        let err = EstimateReport::load_json(&json_path).unwrap_err();
        assert!(
            err.to_string().contains("version 99 unsupported"),
            "got: {err}"
        );
    }
}
