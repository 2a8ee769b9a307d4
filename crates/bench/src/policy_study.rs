//! The policy accuracy-vs-cost study: fixed-170 vs Wilson-CI stopping.
//!
//! The paper sizes every flip-flop's campaign at a fixed 170 SEUs
//! (Leveugle et al.'s formula); the campaign runner additionally supports
//! per-flip-flop Wilson-CI early stopping (`--policy wilson:…`). This
//! module quantifies what that adaptivity buys: it sweeps a grid of
//! stopping policies × measurement budgets over a circuit, always against
//! the paper-faithful `fixed:170` full-budget reference, and records for
//! every cell
//!
//! * the injections spent (and the saving vs the reference),
//! * the per-flip-flop FDR error against the reference table,
//! * the circuit-FFR deviation,
//! * and — for budgeted cells — the accuracy of the full ML flow
//!   (`ffr estimate`) when that policy's partial table feeds it.
//!
//! Every campaign runs through [`ffr_campaign::run_session`], so tables
//! are served from the shared artifact store on reruns, and the finished
//! study is itself a versioned store artifact
//! ([`ArtifactKind::PolicyStudy`]): rerunning the study bin reproduces
//! `policy-study.json` **byte-identically** (wall-clock timings are
//! recorded once, when the study is first computed, and cached with it).
//!
//! The quick-scale `mac-small` study renders to `docs/policy-study.md`
//! ([`render_markdown`]); the wall-time column stays out of the markdown
//! so the committed table is machine-independent and CI can re-render and
//! diff it (`policy_study --check`).

use crate::{artifact_store, cache_dir};
use ffr_campaign::{
    campaign_table_key, estimate_session, run_session, ArtifactKind, CancelToken, CircuitSpec,
    EstimateOptions, RunRequest, RunnerOptions, StoreKey,
};
use ffr_fault::{FaultKind, FdrTable};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::PathBuf;
use std::time::Instant;

/// Study format version; bump on breaking shape changes.
pub(crate) const STUDY_VERSION: u32 = 1;

/// The default policy grid, in canonical spec notation. The first entry
/// is the reference (the paper's fixed-170 rule); `fixed:64` shows what
/// naive budget cutting costs, and the Wilson rows trade confidence
/// against cost in both directions.
pub(crate) const STUDY_POLICIES: [&str; 5] = [
    "fixed:170",
    "fixed:64",
    "wilson:0.1@95:64..170",
    "wilson:0.05@95:64..170",
    "wilson:0.02@99:64..340",
];

/// The default measurement-budget grid: the full campaign, and the
/// README's 40 % ML-assisted flow.
pub(crate) const STUDY_BUDGETS: [f64; 2] = [1.0, 0.4];

/// |ΔFFR| tolerance of the advertised headline cell. Deliberately tight:
/// the headline is the policy the README recommends, so it must land
/// essentially on the reference FFR, not merely inside the acceptance
/// envelope.
pub const HEADLINE_FFR_TOLERANCE: f64 = 0.01;

/// Parameters of one policy study.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Circuit under study (parsed by [`CircuitSpec`]).
    pub circuit: String,
    /// Policy specs to sweep; index 0 is the reference policy.
    pub policies: Vec<String>,
    /// Measurement budgets to sweep (must contain 1.0 for the reference).
    pub budgets: Vec<f64>,
    /// Campaign master seed.
    pub seed: u64,
    /// Stimulus seed.
    pub stim_seed: u64,
    /// Testbench cycles for generic circuits (MACs derive their own).
    pub cycles: u64,
    /// Recompute even if the study artifact is cached.
    pub force: bool,
}

impl StudyConfig {
    /// The default sweep for a circuit: `STUDY_POLICIES` ×
    /// `STUDY_BUDGETS`, the workspace-wide 2019 seed.
    pub fn new(circuit: impl Into<String>) -> StudyConfig {
        StudyConfig {
            circuit: circuit.into(),
            policies: STUDY_POLICIES.iter().map(|s| s.to_string()).collect(),
            budgets: STUDY_BUDGETS.to_vec(),
            seed: 2019,
            stim_seed: 1,
            cycles: 400,
            force: false,
        }
    }
}

/// ML-flow accuracy of one budgeted cell: what `ffr estimate` makes of
/// the policy's partial FDR table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyEstimate {
    /// CV-winning model (CLI token).
    pub best_model: String,
    /// The winner's cross-validated R².
    pub cv_r2: f64,
    /// Estimated circuit FFR (measured + predicted flip-flops).
    pub circuit_ffr: f64,
    /// Signed deviation from the reference circuit FFR.
    pub ffr_delta: f64,
    /// Mean |ΔFDR| of the estimate vs the reference, over **all**
    /// flip-flops.
    pub mean_abs_fdr_error: f64,
}

/// One (policy, budget) cell of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyRow {
    /// Canonical policy spec.
    pub policy: String,
    /// Measurement budget (fraction of flip-flops fault-injected).
    pub budget: f64,
    /// Campaign fingerprint (distinct per policy and budget).
    pub fingerprint: String,
    /// Flip-flops measured under this budget.
    pub measured_ffs: usize,
    /// Injections the campaign spent.
    pub injections: usize,
    /// Fraction of the reference campaign's injections saved (negative
    /// when the policy spends more than fixed-170).
    pub saved_vs_reference: f64,
    /// Wall time of the campaign when this study was first computed, in
    /// milliseconds (informational; cached runs record the cache-serve
    /// time, so only cold-study numbers are meaningful).
    pub wall_ms: u64,
    /// Mean |ΔFDR| vs the reference table, over the measured flip-flops.
    pub mean_abs_fdr_error: f64,
    /// Max |ΔFDR| vs the reference table, over the measured flip-flops.
    pub max_abs_fdr_error: f64,
    /// Circuit FFR (mean FDR over the measured flip-flops).
    pub circuit_ffr: f64,
    /// Signed deviation from the reference circuit FFR.
    pub ffr_delta: f64,
    /// ML-flow results for budgeted cells (`None` at full budget).
    pub estimate: Option<StudyEstimate>,
}

/// A finished policy study (the `policy-study.json` document).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyStudy {
    /// Format version (`STUDY_VERSION`).
    pub version: u32,
    /// Circuit spec string.
    pub circuit: String,
    /// Flip-flops in the circuit.
    pub total_ffs: usize,
    /// The reference policy (first of the grid, at full budget).
    pub reference_policy: String,
    /// Reference campaign fingerprint.
    pub reference_fingerprint: String,
    /// Injections the reference campaign spent.
    pub reference_injections: usize,
    /// Reference circuit FFR.
    pub reference_ffr: f64,
    /// One row per (policy, budget) cell, in grid order.
    pub rows: Vec<StudyRow>,
}

impl PolicyStudy {
    /// The headline cell: among full-budget **Wilson-CI** rows that save
    /// injections and stay within `ffr_tolerance` of the reference FFR,
    /// the one saving the most. Restricted to the Wilson family because
    /// only those rows carry a per-flip-flop confidence guarantee — a
    /// cheaper fixed cut can land near the reference FFR by luck, with
    /// nothing bounding its per-flip-flop error.
    pub fn headline(&self, ffr_tolerance: f64) -> Option<&StudyRow> {
        self.rows
            .iter()
            .filter(|r| {
                r.budget >= 1.0
                    && r.policy.starts_with("wilson:")
                    && r.saved_vs_reference > 0.0
                    && r.ffr_delta.abs() <= ffr_tolerance
            })
            .max_by(|a, b| a.saved_vs_reference.total_cmp(&b.saved_vs_reference))
    }
}

/// Where the study keeps its campaign session directories.
fn sessions_dir() -> PathBuf {
    cache_dir().join("policy-study-sessions")
}

/// The `RunRequest` of one study cell.
fn cell_request(config: &StudyConfig, policy: &str, budget: f64) -> io::Result<RunRequest> {
    let circuit: CircuitSpec = config.circuit.parse().map_err(io::Error::other)?;
    let mut request = RunRequest::new(circuit);
    request.fault = FaultKind::Seu;
    request.policy = policy.parse().map_err(io::Error::other)?;
    request.budget = budget;
    request.seed = config.seed;
    request.stim_seed = config.stim_seed;
    request.cycles = config.cycles;
    request.store = Some(cache_dir());
    Ok(request)
}

/// Run one cell's campaign (store-cached) and return its partial FDR
/// table, fingerprint and wall time.
fn run_cell(request: &RunRequest) -> io::Result<(FdrTable, String, u64)> {
    let prepared = request.circuit.prepare(request.stim_seed, request.cycles);
    let fingerprint = campaign_table_key(request, &prepared).to_string();
    let out_dir = sessions_dir().join(format!("{}-{fingerprint}", request.circuit));
    let t0 = Instant::now();
    let summary = run_session(
        request,
        &out_dir,
        &RunnerOptions::default(),
        &CancelToken::new(),
        |_, _| {},
    )?;
    let wall_ms = t0.elapsed().as_millis() as u64;
    let table_path = summary
        .table_path
        .ok_or_else(|| io::Error::other("study campaign did not complete"))?;
    Ok((FdrTable::load_json(&table_path)?, fingerprint, wall_ms))
}

/// Mean and max |ΔFDR| of `table`'s measured flip-flops vs `reference`.
fn fdr_errors(table: &FdrTable, reference: &FdrTable) -> (f64, f64) {
    let mut sum = 0.0;
    let mut max: f64 = 0.0;
    let mut n = 0usize;
    for row in table.covered() {
        if let Some(ref_fdr) = reference.fdr(row.ff()) {
            let err = (row.fdr() - ref_fdr).abs();
            sum += err;
            max = max.max(err);
            n += 1;
        }
    }
    (if n == 0 { 0.0 } else { sum / n as f64 }, max)
}

/// Compute (or cache-serve) the policy study for `config`.
///
/// # Errors
///
/// Fails on I/O errors, unparsable circuit/policy specs, or a grid whose
/// first cell is not a full-budget reference.
pub fn run_study(config: &StudyConfig) -> io::Result<PolicyStudy> {
    if config.policies.is_empty() {
        return Err(io::Error::other("policy grid is empty"));
    }
    if !config.budgets.contains(&1.0) {
        return Err(io::Error::other(
            "budget grid must contain 1.0 (the reference budget)",
        ));
    }
    let store = artifact_store();

    // The study artifact is keyed by the netlist plus every knob of the
    // sweep, so changing the grid (or the format) misses cleanly.
    let reference_request = cell_request(config, &config.policies[0], 1.0)?;
    let prepared = reference_request
        .circuit
        .prepare(config.stim_seed, config.cycles);
    let study_desc = format!(
        "policy-study;v={STUDY_VERSION};circuit={};policies={};budgets={:?};seed={};stim_seed={};cycles={}",
        config.circuit,
        config.policies.join("|"),
        config.budgets,
        config.seed,
        config.stim_seed,
        config.cycles,
    );
    let study_key = StoreKey::of(prepared.cc.netlist(), &study_desc);
    if !config.force {
        if let Some(study) = store.get::<PolicyStudy>(ArtifactKind::PolicyStudy, &study_key)? {
            eprintln!(
                "[policy-study] {} served from artifact store",
                config.circuit
            );
            return Ok(study);
        }
    }

    // Reference campaign first: everything else is measured against it.
    eprintln!(
        "[policy-study] {}: reference {} (full budget)",
        config.circuit, config.policies[0]
    );
    let (reference, reference_fingerprint, reference_wall_ms) = run_cell(&reference_request)?;
    let reference_injections = reference.injections_spent();
    let reference_ffr = reference.circuit_fdr();

    let mut rows = Vec::new();
    for policy in &config.policies {
        for &budget in &config.budgets {
            eprintln!(
                "[policy-study] {}: {policy} @ budget {budget}",
                config.circuit
            );
            let request = cell_request(config, policy, budget)?;
            // The reference cell was already computed above; rerunning it
            // would only record the cache-serve time as its wall time.
            let (table, fingerprint, wall_ms) = if policy == &config.policies[0] && budget >= 1.0 {
                (
                    reference.clone(),
                    reference_fingerprint.clone(),
                    reference_wall_ms,
                )
            } else {
                run_cell(&request)?
            };
            let injections = table.injections_spent();
            let (mean_err, max_err) = fdr_errors(&table, &reference);
            let circuit_ffr = table.circuit_fdr();

            // Budgeted cells additionally feed the ML flow.
            let estimate = if budget < 1.0 {
                let out_dir = sessions_dir().join(format!("{}-{fingerprint}", request.circuit));
                let options = EstimateOptions {
                    store: Some(cache_dir()),
                    ..EstimateOptions::default()
                };
                let summary = estimate_session(&out_dir, &options)?;
                let report = summary.report;
                let cv_r2 = report
                    .models
                    .iter()
                    .find(|m| m.model == report.best_model)
                    .map(|m| m.cv_r2)
                    .unwrap_or(f64::NAN);
                let mean_abs = {
                    let mut sum = 0.0;
                    let mut n = 0usize;
                    for row in &report.per_ff {
                        if let Some(ref_fdr) =
                            reference.fdr(ffr_netlist::FfId::from_index(row.index))
                        {
                            sum += (row.fdr - ref_fdr).abs();
                            n += 1;
                        }
                    }
                    if n == 0 {
                        0.0
                    } else {
                        sum / n as f64
                    }
                };
                Some(StudyEstimate {
                    best_model: report.best_model.clone(),
                    cv_r2,
                    circuit_ffr: report.circuit_ffr,
                    ffr_delta: report.circuit_ffr - reference_ffr,
                    mean_abs_fdr_error: mean_abs,
                })
            } else {
                None
            };

            rows.push(StudyRow {
                policy: policy.clone(),
                budget,
                fingerprint,
                measured_ffs: table.covered().count(),
                injections,
                saved_vs_reference: 1.0 - injections as f64 / reference_injections as f64,
                wall_ms,
                mean_abs_fdr_error: mean_err,
                max_abs_fdr_error: max_err,
                circuit_ffr,
                ffr_delta: circuit_ffr - reference_ffr,
                estimate,
            });
        }
    }

    let study = PolicyStudy {
        version: STUDY_VERSION,
        circuit: config.circuit.clone(),
        total_ffs: prepared.cc.num_ffs(),
        reference_policy: config.policies[0].clone(),
        reference_fingerprint,
        reference_injections,
        reference_ffr,
        rows,
    };
    store.put(ArtifactKind::PolicyStudy, &study_key, &study)?;
    Ok(study)
}

/// Render one study as the `docs/policy-study.md` document.
///
/// Everything in the rendering is a pure function of the study's
/// deterministic fields — wall times are deliberately excluded — so the
/// committed file can be re-rendered and diffed by CI.
pub fn render_markdown(study: &PolicyStudy) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# Policy study: fixed-170 vs Wilson-CI stopping");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "<!-- Generated by `cargo run --release -p ffr-bench --bin policy_study`."
    );
    let _ = writeln!(
        out,
        "     Do not edit by hand; CI re-renders this table and diffs it\n\
         \u{20}    (`policy_study --check`). -->"
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "The paper fixes every flip-flop's campaign at 170 injections \
         (Leveugle et al.'s\nstatistical sizing); the `ffr` runner can \
         instead retire each flip-flop as soon\nas the Wilson confidence \
         interval on its FDR is tight enough \
         (`--policy\nwilson:<half_width>@<confidence>`). This table \
         quantifies the trade-off on\n`{}` ({} flip-flops): every policy × \
         measurement-budget cell is compared\nagainst the paper-faithful \
         `{}` full-budget reference\n(circuit FFR {:.4}, {} injections).",
        study.circuit,
        study.total_ffs,
        study.reference_policy,
        study.reference_ffr,
        study.reference_injections,
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "| policy | budget | measured FFs | injections | saved | mean \
         \\|ΔFDR\\| | max \\|ΔFDR\\| | FFR | ΔFFR | ML flow (best model, \
         est. FFR, ΔFFR) |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---:|---:|---:|---|");
    for row in &study.rows {
        let ml = match &row.estimate {
            None => "—".to_string(),
            Some(e) => format!(
                "{} · {:.4} · {:+.4}",
                e.best_model, e.circuit_ffr, e.ffr_delta
            ),
        };
        let _ = writeln!(
            out,
            "| `{}` | {:.0} % | {} | {} | {:.1} % | {:.4} | {:.4} | {:.4} | {:+.4} | {} |",
            row.policy,
            row.budget * 100.0,
            row.measured_ffs,
            row.injections,
            row.saved_vs_reference * 100.0,
            row.mean_abs_fdr_error,
            row.max_abs_fdr_error,
            row.circuit_ffr,
            row.ffr_delta,
            ml,
        );
    }
    let _ = writeln!(out);
    if let Some(headline) = study.headline(HEADLINE_FFR_TOLERANCE) {
        let _ = writeln!(
            out,
            "**Headline:** `{}` keeps the circuit FFR within {:.4} of the \
             fixed-170\nreference while saving {:.1} % of the injections \
             ({} vs {}).",
            headline.policy,
            headline.ffr_delta.abs(),
            headline.saved_vs_reference * 100.0,
            headline.injections,
            study.reference_injections,
        );
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "Notes:\n\
         \n\
         * *saved* is relative to the reference campaign's injections; \
         negative values\n  mean the policy spends more than fixed-170 \
         (it buys confidence, not cost).\n\
         * \\|ΔFDR\\| columns compare per-flip-flop FDRs against the \
         reference table over\n  the cell's measured flip-flops.\n\
         * The headline considers Wilson rows only: a cheaper fixed cut \
         (`fixed:64`) can\n  land near the reference circuit FFR by \
         averaging luck, but carries no\n  per-flip-flop confidence \
         bound.\n\
         * The *ML flow* column feeds each budgeted cell's partial table \
         through\n  `ffr estimate` (CV model selection + prediction of \
         unmeasured flip-flops).\n\
         * Wall-clock timings live in `policy-study.json` (store \
         artifact), not here:\n  they are machine-dependent and would \
         defeat the byte-identical CI check.\n\
         * Regenerate with `cargo run --release -p ffr-bench --bin \
         policy_study`\n  (quick scale studies `mac-small`; \
         `FFR_SCALE=paper` adds the paper-scale MAC,\n  whose table goes \
         to stdout and the artifact store only)."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(tag: &str) -> StudyConfig {
        // A deliberately small grid on a small circuit so the test runs
        // in seconds. The cap must exceed one 64-injection decision chunk
        // or adaptive stopping never gets to decide early.
        let mut config = StudyConfig::new("lfsr:8:2");
        config.policies = vec!["fixed:192".to_string(), "wilson:0.1@95:64..192".to_string()];
        config.budgets = vec![1.0, 0.5];
        config.cycles = 200;
        config.seed = 7 ^ tag.len() as u64;
        config
    }

    #[test]
    fn study_is_deterministic_and_cache_served() {
        let config = tiny_config("det");
        let first = run_study(&config).unwrap();
        assert_eq!(first.version, STUDY_VERSION);
        assert_eq!(first.rows.len(), 4);
        assert_eq!(first.reference_policy, "fixed:192");
        let full_budget_row = |policy: &str| {
            first
                .rows
                .iter()
                .find(|r| r.policy == policy && r.budget >= 1.0)
                .unwrap()
        };
        // The reference cell is exact: zero error against itself.
        let ref_row = full_budget_row("fixed:192");
        assert_eq!(ref_row.injections, first.reference_injections);
        assert_eq!(ref_row.mean_abs_fdr_error, 0.0);
        assert_eq!(ref_row.ffr_delta, 0.0);
        // The Wilson cell saves injections at full budget.
        let wilson = full_budget_row("wilson:0.1@95:64..192");
        assert!(wilson.saved_vs_reference > 0.0, "{wilson:?}");
        // Budgeted cells carry ML-flow results.
        for row in first.rows.iter().filter(|r| r.budget < 1.0) {
            let est = row.estimate.as_ref().expect("budgeted cell estimates");
            assert!(est.circuit_ffr.is_finite());
            assert!(!est.best_model.is_empty());
        }

        // A rerun is served from the study artifact, byte-identically.
        let second = run_study(&config).unwrap();
        assert_eq!(first, second);
        assert_eq!(
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&second).unwrap()
        );

        // A forced recompute reproduces every deterministic field (wall
        // times may differ).
        let mut forced = config.clone();
        forced.force = true;
        let mut third = run_study(&forced).unwrap();
        for (a, b) in third.rows.iter_mut().zip(first.rows.iter()) {
            a.wall_ms = b.wall_ms;
        }
        assert_eq!(first, third, "recomputed study must match modulo wall time");
    }

    #[test]
    fn markdown_rendering_is_deterministic_and_wall_free() {
        let config = tiny_config("md");
        let study = run_study(&config).unwrap();
        let a = render_markdown(&study);
        let b = render_markdown(&study);
        assert_eq!(a, b);
        assert!(a.contains("| `fixed:192` | 100 %"), "{a}");
        assert!(a.contains("policy_study"), "{a}");
        assert!(!a.contains("wall"), "wall time must stay out of the doc");
        // Wall time must not influence the rendering at all.
        let mut altered = study.clone();
        for row in &mut altered.rows {
            row.wall_ms = row.wall_ms.wrapping_add(12345);
        }
        assert_eq!(a, render_markdown(&altered));
    }

    #[test]
    fn bad_grids_are_rejected() {
        let mut config = tiny_config("bad");
        config.budgets = vec![0.5];
        assert!(run_study(&config).unwrap_err().to_string().contains("1.0"));
        let mut config = tiny_config("bad2");
        config.policies.clear();
        assert!(run_study(&config)
            .unwrap_err()
            .to_string()
            .contains("empty"));
    }
}
