//! `ffr transfer` — cross-circuit FDR estimation with zero injections.
//!
//! The estimate stage trains and predicts within one circuit. This module
//! answers the harder generality question (the train-on-A/B, predict-on-C
//! protocol of "Cross-Layer Reliability … ML-Based Compact Models"):
//!
//! 1. load the **measured** FDR tables + feature matrices of the training
//!    circuits from the artifact store (they must have been measured by
//!    `ffr run` with the same campaign parameters),
//! 2. align the feature matrices under one verified schema
//!    ([`ffr_features::align`]) and stack the measured rows with
//!    per-circuit group labels,
//! 3. hand the stacked rows, **leave-one-circuit-out** folds
//!    ([`GroupKFold`]) and the evaluation circuit's feature rows to the
//!    workspace's one estimation pipeline ([`ffr_core::estimate()`]) —
//!    the same call `ffr estimate` makes, with grouped folds (every
//!    candidate is scored only on circuits it never trained on, the
//!    honest proxy for the transfer task) and nothing measured on the
//!    target,
//! 4. the winner, trained on all measured rows, thereby predicts the
//!    per-FF FDR of the evaluation circuit from its features alone —
//!    **zero fault injections** on the target (one golden simulation
//!    supplies the dynamic feature columns),
//! 5. emit a versioned [`TransferReport`]: per-train-circuit holdout
//!    metrics, the predicted FDR of every target flip-flop, the predicted
//!    circuit FFR, and — when the store happens to hold a measured table
//!    for the target — the measured-reference comparison.
//!
//! Everything downstream of the tables is a pure function of fixed seeds,
//! so rerunning produces a **byte-identical** report; asserted end-to-end
//! by `crates/campaign/tests/cli_transfer.rs`.

use crate::estimate::{
    cached_report, check_trainable, load_or_extract_features, model_names, model_reports,
    EstimateOptions, ModelReport,
};
use crate::session::{self, RunRequest};
use crate::spec::PreparedCircuit;
use crate::store::{ArtifactKind, ArtifactStore, StoreKey};
use ffr_fault::{FaultKind, FdrTable};
use ffr_ml::model_selection::{take, GroupKFold};
use ffr_ml::RegressionScores;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// Transfer report format version; bump on breaking shape changes.
pub(crate) const TRANSFER_VERSION: u32 = 1;

/// One training circuit's contribution and holdout quality.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainCircuitReport {
    /// Circuit spec string (`corpus:fifo2x4`, `mac-small`, …).
    pub circuit: String,
    /// Campaign fingerprint its FDR table was loaded under.
    pub fingerprint: String,
    /// Measured (fault-injected) flip-flops contributed to training.
    pub measured_ffs: usize,
    /// All flip-flops of the circuit.
    pub total_ffs: usize,
    /// Fault-injection simulations its campaign spent.
    pub injections_spent: usize,
    /// Holdout MAE: the winning model trained on the *other* circuits,
    /// scored on this circuit's measured rows.
    pub holdout_mae: f64,
    /// Holdout RMSE under the same protocol.
    pub holdout_rmse: f64,
    /// Holdout R² under the same protocol.
    pub holdout_r2: f64,
    /// Mean measured FDR of this circuit's measured subset.
    pub measured_ffr: f64,
    /// Mean predicted FDR over the same rows (model never saw them).
    pub predicted_ffr: f64,
    /// `predicted_ffr - measured_ffr`.
    pub ffr_delta: f64,
}

/// Comparison of the zero-injection prediction against a measured
/// reference table of the evaluation circuit (only present when the
/// store already holds one).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReferenceComparison {
    /// Measured flip-flops in the reference table.
    pub measured_ffs: usize,
    /// Mean measured FDR of the reference subset.
    pub measured_ffr: f64,
    /// MAE of predictions vs measurements over the reference subset.
    pub mae: f64,
    /// RMSE over the reference subset.
    pub rmse: f64,
    /// R² over the reference subset.
    pub r2: f64,
    /// `predicted_ffr - measured_ffr` (circuit level).
    pub ffr_delta: f64,
}

/// One predicted flip-flop of the evaluation circuit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferFfRow {
    /// Flip-flop instance name.
    pub ff: String,
    /// Flip-flop index (`FfId` order).
    pub index: usize,
    /// Predicted Functional De-Rating factor (clamped to `[0, 1]`).
    pub fdr: f64,
}

/// The complete output of one `ffr transfer` run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferReport {
    /// Report format version; [`TransferReport::load_json`] rejects any
    /// other.
    pub version: u32,
    /// Feature schema the matrices were aligned under.
    pub schema: String,
    /// Training circuits, in the order given on the command line.
    pub train: Vec<TrainCircuitReport>,
    /// Evaluation circuit spec string.
    pub eval_circuit: String,
    /// Campaign fingerprint a measurement of the evaluation circuit
    /// would run under (used to look up the reference table).
    pub eval_fingerprint: String,
    /// Flip-flops of the evaluation circuit (all predicted).
    pub eval_total_ffs: usize,
    /// Cross-validation protocol used for model selection
    /// (`loco:<n circuits>`).
    pub cv_protocol: String,
    /// Fold-assignment seed (stratified tie-breaking inherits it).
    pub cv_seed: u64,
    /// Per-model cross-circuit CV results, in evaluation order.
    pub models: Vec<ModelReport>,
    /// CLI token of the winning model (highest leave-one-circuit-out R²).
    pub best_model: String,
    /// Stacked measured rows the winner trained on.
    pub train_rows: usize,
    /// Total fault injections spent by the training campaigns.
    pub injections_spent: usize,
    /// Fault injections spent on the evaluation circuit: always 0.
    pub eval_injections: usize,
    /// Predicted circuit-level FFR of the evaluation circuit (mean
    /// predicted FDR, uniform raw SEU rate per flip-flop).
    pub predicted_ffr: f64,
    /// Measured-reference comparison, when the store holds a table.
    pub reference: Option<ReferenceComparison>,
    /// Per-flip-flop predictions, in `FfId` order.
    pub per_ff: Vec<TransferFfRow>,
}

impl TransferReport {
    /// Render the per-flip-flop predictions as CSV (`ff,index,fdr`).
    pub(crate) fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("ff,index,fdr\n");
        for row in &self.per_ff {
            let _ = writeln!(out, "{},{},{:.6}", row.ff, row.index, row.fdr);
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

    /// Load a report written by `ffr transfer`.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, undecodable files or a version mismatch (the
    /// version is probed before full deserialization).
    pub fn load_json(path: &Path) -> io::Result<TransferReport> {
        crate::store::load_versioned(path, "transfer report", TRANSFER_VERSION)
    }
}

/// Outcome summary of a transfer run.
#[derive(Debug)]
pub struct TransferSummary {
    /// The computed (or cache-served) report.
    pub report: TransferReport,
    /// `true` if the report was served from the artifact store.
    pub report_from_cache: bool,
}

/// Run cross-circuit transfer estimation off the artifact store.
///
/// Every request in `train` must correspond to a completed `ffr run`
/// whose final FDR table the store holds; `eval` only needs a golden
/// simulation (computed and cached on the fly if absent). The report is
/// cached in the store under [`ArtifactKind::Transfer`], keyed by the
/// evaluation netlist plus every input fingerprint and knob.
///
/// # Errors
///
/// Fails on I/O errors, non-SEU requests, fewer than two distinct
/// training circuits, a missing training table, or schema mismatches.
pub fn transfer_from_store(
    train: &[RunRequest],
    eval: &RunRequest,
    options: &EstimateOptions,
) -> io::Result<TransferSummary> {
    if options.models.is_empty() {
        return Err(io::Error::other("no models selected"));
    }
    for request in train.iter().chain(std::iter::once(eval)) {
        if request.fault != FaultKind::Seu {
            return Err(io::Error::other(
                "ffr transfer needs SEU campaigns (per-flip-flop FDR)",
            ));
        }
    }
    if train.len() < 2 {
        return Err(io::Error::other(
            "cross-circuit transfer needs at least 2 training circuits \
             (leave-one-circuit-out model selection)",
        ));
    }
    let eval_spec = eval.circuit.spec_string();
    for (i, a) in train.iter().enumerate() {
        if a.circuit.spec_string() == eval_spec {
            return Err(io::Error::other(format!(
                "evaluation circuit `{eval_spec}` is also a training circuit — \
                 transfer must predict an unseen circuit"
            )));
        }
        for b in &train[..i] {
            if a.circuit.spec_string() == b.circuit.spec_string() {
                return Err(io::Error::other(format!(
                    "training circuit `{}` given twice",
                    a.circuit.spec_string()
                )));
            }
        }
    }

    let store_path = options
        .store
        .clone()
        .or_else(|| eval.store.clone())
        .or_else(|| train.iter().find_map(|r| r.store.clone()))
        .ok_or_else(|| io::Error::other("transfer requires --store"))?;
    let store = ArtifactStore::open(&store_path)?;

    // Resolve fingerprints first: the report cache key needs nothing
    // else, so a cache hit loads no table and no feature matrix.
    let train: Vec<TransferCircuit> = train.iter().map(TransferCircuit::resolve).collect();
    let eval = TransferCircuit::resolve(eval);
    let train_prints: Vec<String> = train.iter().map(|c| c.fingerprint.to_string()).collect();
    let report_desc = format!(
        "transfer;train={};of={};models={};cv_seed={};grid={};{};report_v={TRANSFER_VERSION}",
        train_prints.join("+"),
        eval.fingerprint,
        model_names(&options.models),
        options.cv_seed,
        options.grid_budget,
        ffr_features::schema_desc()
    );
    let report_key = StoreKey::of(eval.prepared.cc.netlist(), &report_desc);
    let (report, report_from_cache) = cached_report(
        Some(&store),
        ArtifactKind::Transfer,
        &report_key,
        options.force,
        || transfer(train, eval, &store, options),
    )?;
    Ok(TransferSummary {
        report,
        report_from_cache,
    })
}

/// One circuit of a transfer run, resolved as far as the report cache
/// key needs: prepared design + campaign fingerprint.
struct TransferCircuit {
    spec: String,
    prepared: PreparedCircuit,
    fingerprint: StoreKey,
}

impl TransferCircuit {
    fn resolve(request: &RunRequest) -> TransferCircuit {
        let prepared = request.circuit.prepare(request.stim_seed, request.cycles);
        TransferCircuit {
            spec: request.circuit.spec_string(),
            fingerprint: session::campaign_table_key(request, &prepared),
            prepared,
        }
    }
}

/// The transfer computation behind the report cache: load / align / stack
/// the measured rows → [`ffr_core::estimate()`] over leave-one-circuit-out
/// folds, target = every flip-flop of the evaluation circuit → report.
fn transfer(
    train: Vec<TransferCircuit>,
    eval: TransferCircuit,
    store: &ArtifactStore,
    options: &EstimateOptions,
) -> io::Result<TransferReport> {
    // Every training circuit: measured table + features (its prepared
    // design is dropped as soon as those are loaded).
    let mut tables: Vec<FdrTable> = Vec::with_capacity(train.len());
    let mut matrices = Vec::with_capacity(train.len());
    let mut fingerprints = Vec::with_capacity(train.len());
    for circuit in train {
        let table: FdrTable = store
            .get(ArtifactKind::FdrTable, &circuit.fingerprint)?
            .ok_or_else(|| {
                io::Error::other(format!(
                    "store {} holds no FDR table for training circuit `{}` \
                     (fingerprint {}) — run `ffr run` with the same parameters first",
                    store.root().display(),
                    circuit.spec,
                    circuit.fingerprint
                ))
            })?;
        check_trainable(&table, circuit.prepared.cc.num_ffs())
            .map_err(|e| io::Error::other(format!("training circuit `{}`: {e}", circuit.spec)))?;
        tables.push(table);
        let (features, _) = load_or_extract_features(&circuit.prepared, Some(store))?;
        fingerprints.push(circuit.fingerprint);
        matrices.push((circuit.spec, features));
    }

    // The evaluation circuit needs features only (golden simulation, zero
    // injections).
    let (eval_features, _) = load_or_extract_features(&eval.prepared, Some(store))?;
    ffr_features::check_schema(&eval_features)
        .map_err(|e| io::Error::other(format!("evaluation circuit `{}`: {e}", eval.spec)))?;

    // Align all training matrices under one schema (stacked in circuit
    // order, `FfId` order within each), then keep only the measured rows,
    // labelled with their circuit group, for training.
    let aligned = ffr_features::align(&matrices).map_err(io::Error::other)?;
    let mut tx: Vec<Vec<f64>> = Vec::new();
    let mut ty: Vec<f64> = Vec::new();
    let mut groups: Vec<usize> = Vec::new();
    let mut offset = 0;
    for (group, table) in tables.iter().enumerate() {
        let rows = &aligned.rows()[offset..offset + table.num_ffs()];
        let (x, y) = ffr_core::measured_rows(table, rows);
        groups.resize(groups.len() + y.len(), group);
        tx.extend(x);
        ty.extend(y);
        offset += table.num_ffs();
    }

    // Model selection by leave-one-circuit-out CV, the final fit on every
    // measured row and the prediction of every evaluation flip-flop: the
    // one estimation pipeline, with grouped folds and nothing measured on
    // the target.
    let folds = GroupKFold::leave_one_out(&groups);
    let estimate = ffr_core::estimate(
        &tx,
        &ty,
        &folds,
        &options.models,
        options.grid_budget,
        &eval_features.to_rows(),
        &ffr_obs::Recorder::disabled(),
    );
    let predictions = &estimate.predictions;
    let predicted_ffr = mean(predictions);

    // Per-train-circuit holdout quality of the winner: refit on the other
    // circuits, score on the held-out one (the LOCO folds, reused — one
    // per circuit, in circuit order).
    let mut train_reports = Vec::with_capacity(tables.len());
    for (i, (train_idx, test_idx)) in folds.iter().enumerate() {
        let table = &tables[i];
        let (ftx, fty) = take(&tx, &ty, train_idx);
        let (vtx, vty) = take(&tx, &ty, test_idx);
        let held_out = ffr_core::fit_predict(&estimate.winner, &ftx, &fty, &vtx);
        let scores = RegressionScores::compute(&vty, &held_out);
        let measured_ffr = mean(&vty);
        let predicted_ffr = mean(&held_out);
        train_reports.push(TrainCircuitReport {
            circuit: matrices[i].0.clone(),
            fingerprint: fingerprints[i].to_string(),
            measured_ffs: table.covered().count(),
            total_ffs: table.num_ffs(),
            injections_spent: table.injections_spent(),
            holdout_mae: scores.mae,
            holdout_rmse: scores.rmse,
            holdout_r2: scores.r2,
            measured_ffr,
            predicted_ffr,
            ffr_delta: predicted_ffr - measured_ffr,
        });
    }

    // Measured reference, when the store already holds a table for the
    // evaluation campaign (e.g. a validation measurement).
    let reference = store
        .get::<FdrTable>(ArtifactKind::FdrTable, &eval.fingerprint)?
        .map(|table| {
            let measured: Vec<f64> = table.covered().map(|r| r.fdr()).collect();
            let predicted: Vec<f64> = table
                .covered()
                .map(|r| predictions[r.ff().index()])
                .collect();
            let scores = RegressionScores::compute(&measured, &predicted);
            ReferenceComparison {
                measured_ffs: measured.len(),
                measured_ffr: table.circuit_fdr(),
                mae: scores.mae,
                rmse: scores.rmse,
                r2: scores.r2,
                ffr_delta: predicted_ffr - table.circuit_fdr(),
            }
        });

    Ok(TransferReport {
        version: TRANSFER_VERSION,
        schema: ffr_features::schema_desc(),
        train: train_reports,
        eval_circuit: eval.spec,
        eval_fingerprint: eval.fingerprint.to_string(),
        eval_total_ffs: eval.prepared.cc.num_ffs(),
        cv_protocol: format!("loco:{}", tables.len()),
        cv_seed: options.cv_seed,
        models: model_reports(&estimate.models),
        best_model: estimate.winner.kind().cli_name().to_string(),
        train_rows: tx.len(),
        injections_spent: tables.iter().map(FdrTable::injections_spent).sum(),
        eval_injections: 0,
        predicted_ffr,
        reference,
        per_ff: predictions
            .iter()
            .enumerate()
            .map(|(index, &fdr)| TransferFfRow {
                ff: eval_features.ff_names()[index].clone(),
                index,
                fdr,
            })
            .collect(),
    })
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptivePolicy;
    use crate::runner::{CancelToken, RunnerOptions};
    use crate::spec::CircuitSpec;
    use ffr_core::ModelKind;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ffr_transfer_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn request(circuit: CircuitSpec, store: &Path) -> RunRequest {
        RunRequest {
            circuit,
            fault: FaultKind::Seu,
            stim_seed: 1,
            cycles: 200,
            seed: 5,
            policy: AdaptivePolicy::fixed(32),
            budget: 1.0,
            store: Some(store.to_path_buf()),
            force: false,
        }
    }

    fn run_campaign(req: &RunRequest, out: &Path) {
        session::run(
            req,
            out,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
    }

    fn quick_options(store: &Path) -> EstimateOptions {
        EstimateOptions {
            models: vec![ModelKind::LinearLeastSquares, ModelKind::Knn],
            grid_budget: 1,
            store: Some(store.to_path_buf()),
            ..EstimateOptions::default()
        }
    }

    fn corpus(id: &str) -> CircuitSpec {
        CircuitSpec::Corpus { id: id.to_string() }
    }

    #[test]
    fn transfer_predicts_unseen_circuit_and_caches() {
        let store = tmp_dir("basic_store");
        let train = [
            request(corpus("fifo2x4"), &store),
            request(corpus("regfile2x4"), &store),
        ];
        for (i, req) in train.iter().enumerate() {
            run_campaign(req, &tmp_dir(&format!("basic_out{i}")));
        }
        let eval = request(corpus("fifo2x8"), &store);

        let options = quick_options(&store);
        let summary = transfer_from_store(&train, &eval, &options).unwrap();
        assert!(!summary.report_from_cache);
        let report = &summary.report;
        assert_eq!(report.version, TRANSFER_VERSION);
        assert_eq!(report.train.len(), 2);
        assert_eq!(report.eval_injections, 0);
        assert_eq!(report.per_ff.len(), report.eval_total_ffs);
        assert!(report.per_ff.iter().all(|r| (0.0..=1.0).contains(&r.fdr)));
        assert!((0.0..=1.0).contains(&report.predicted_ffr));
        assert_eq!(report.cv_protocol, "loco:2");
        assert!(report.reference.is_none(), "eval circuit never measured");
        assert!(report.train_rows >= report.train.iter().map(|t| t.measured_ffs).sum::<usize>());

        // Rerun is cache-served and identical — and the cache is probed
        // before any input is loaded: with the feature artifacts gone, a
        // hit neither needs nor re-extracts them.
        let features_dir = store.join(ArtifactKind::Features.dir_name());
        std::fs::remove_dir_all(&features_dir).unwrap();
        let summary2 = transfer_from_store(&train, &eval, &options).unwrap();
        assert!(summary2.report_from_cache);
        assert_eq!(summary2.report, summary.report);
        assert!(!features_dir.exists(), "a cache hit must not load features");

        // A forced rerun recomputes to the same report (determinism).
        let forced = EstimateOptions {
            force: true,
            ..options
        };
        let summary3 = transfer_from_store(&train, &eval, &forced).unwrap();
        assert!(!summary3.report_from_cache);
        assert_eq!(summary3.report, summary.report);
    }

    #[test]
    fn transfer_reports_reference_when_eval_is_measured() {
        let store = tmp_dir("ref_store");
        let train = [
            request(corpus("fifo2x4"), &store),
            request(corpus("regfile2x4"), &store),
        ];
        for (i, req) in train.iter().enumerate() {
            run_campaign(req, &tmp_dir(&format!("ref_out{i}")));
        }
        let eval = request(corpus("cnt8"), &store);
        run_campaign(&eval, &tmp_dir("ref_out_eval"));

        let summary = transfer_from_store(&train, &eval, &quick_options(&store)).unwrap();
        let reference = summary.report.reference.expect("eval was measured");
        assert!(reference.measured_ffs > 0);
        assert!(reference.mae >= 0.0);
        assert!(
            (summary.report.predicted_ffr - reference.measured_ffr - reference.ffr_delta).abs()
                < 1e-12
        );
    }

    #[test]
    fn transfer_rejects_bad_inputs() {
        let store = tmp_dir("rejects_store");
        let a = request(corpus("fifo2x4"), &store);
        let b = request(corpus("regfile2x4"), &store);
        let options = quick_options(&store);

        // Too few training circuits.
        let err = transfer_from_store(std::slice::from_ref(&a), &b, &options).unwrap_err();
        assert!(err.to_string().contains("at least 2"), "{err}");
        // Eval among train.
        let err = transfer_from_store(&[a.clone(), b.clone()], &a.clone(), &options).unwrap_err();
        assert!(err.to_string().contains("unseen circuit"), "{err}");
        // Duplicate train circuit.
        let err = transfer_from_store(&[a.clone(), a.clone()], &b, &options).unwrap_err();
        assert!(err.to_string().contains("twice"), "{err}");
        // Missing table.
        let err = transfer_from_store(
            &[a.clone(), b.clone()],
            &request(corpus("cnt8"), &store),
            &options,
        )
        .unwrap_err();
        assert!(err.to_string().contains("no FDR table"), "{err}");
        // SET request.
        let mut set_req = a;
        set_req.fault = FaultKind::Set;
        let err = transfer_from_store(
            &[set_req, b.clone()],
            &request(corpus("cnt8"), &store),
            &options,
        )
        .unwrap_err();
        assert!(err.to_string().contains("SEU"), "{err}");
    }
}
