//! Leave-one-circuit-out transfer study over the generated corpus.
//!
//! Measures four FIFO / register-file corpus circuits (the families with
//! genuinely varied FDR populations under the strict output-mismatch
//! judge), then runs `ffr transfer` once per circuit with the other three
//! as the training set, and regenerates `docs/transfer-study.md` — the
//! committed evidence that per-FF FDR profiles transfer across circuits
//! with **zero injections** on the target.
//!
//! The study runs at fixed small parameters (24 injections/FF, 200
//! cycles, seed 7) regardless of `FFR_SCALE`, so the committed markdown
//! is deterministic and cheap for CI to re-render and compare:
//!
//! ```text
//! cargo run --release -p ffr-bench --bin transfer_study            # regenerate
//! cargo run --release -p ffr-bench --bin transfer_study -- --check # CI drift gate
//! cargo run --release -p ffr-bench --bin transfer_study -- --force # recompute
//! ```

use ffr_bench::drift::{CommittedDoc, DocArgs};
use ffr_campaign::{
    run_session, transfer_from_store, CancelToken, CircuitSpec, EstimateOptions, RunRequest,
    RunnerOptions, TransferReport,
};
use ffr_core::ModelKind;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The corpus circuits of the study, each evaluated once with the other
/// three as the training set.
const CIRCUITS: [&str; 4] = ["fifo2x4", "fifo3x4", "regfile2x4", "regfile3x4"];

/// Campaign + study scratch space (store-cached, safe to delete).
fn study_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/transfer-study")
}

fn request(corpus_id: &str, store: &Path) -> RunRequest {
    let mut request = RunRequest::new(CircuitSpec::Corpus {
        id: corpus_id.to_string(),
    });
    request.seed = 7;
    request.cycles = 200;
    request.policy = ffr_campaign::AdaptivePolicy::fixed(24);
    request.store = Some(store.to_path_buf());
    request
}

fn render_markdown(reports: &[(String, TransferReport)]) -> String {
    use std::fmt::Write as _;
    let mut md = String::new();
    md.push_str("# Cross-circuit transfer study\n\n");
    md.push_str(
        "Generated by `cargo run --release -p ffr-bench --bin transfer_study`; \
         checked by CI with `-- --check`. Do not edit by hand.\n\n",
    );
    md.push_str(
        "Leave-one-circuit-out protocol over four generated corpus circuits \
         (`corpus:fifo2x4`, `corpus:fifo3x4`, `corpus:regfile2x4`, \
         `corpus:regfile3x4`; 24 injections per flip-flop, 200 cycles, seed 7): \
         each circuit is predicted by compact models trained **only on the other \
         three** — zero fault injections on the target, one golden simulation \
         for its dynamic features. Model selection is itself \
         leave-one-circuit-out cross-validation over the training set, so every \
         candidate is scored on circuits it never saw. The measured columns come \
         from reference campaigns that the transfer flow never touches.\n\n",
    );
    md.push_str(
        "| eval circuit | train FFs | model | measured FFR | predicted FFR | \
         ΔFFR | per-FF MAE | R² | target injections |\n",
    );
    md.push_str("|---|---:|---|---:|---:|---:|---:|---:|---:|\n");
    for (id, report) in reports {
        let r = report
            .reference
            .as_ref()
            .expect("study circuits are all measured");
        let _ = writeln!(
            md,
            "| `corpus:{id}` | {} | {} | {:.4} | {:.4} | {:+.4} | {:.3} | {:.3} | {} |",
            report.train_rows,
            report.best_model,
            r.measured_ffr,
            report.predicted_ffr,
            r.ffr_delta,
            r.mae,
            r.r2,
            report.eval_injections,
        );
    }
    md.push_str(
        "\nEvery row is byte-reproducible: the `TransferReport` artifact is a \
         pure function of the measured tables, the feature schema and fixed \
         seeds (`crates/campaign/tests/cli_transfer.rs` asserts this end to \
         end at the process level).\n",
    );
    md
}

fn main() -> ExitCode {
    let args = match DocArgs::from_env() {
        Ok(args) => args,
        Err(code) => return ExitCode::from(code),
    };

    let store = study_dir().join("store");
    let options = RunnerOptions::default();

    // Measure every circuit (cache-served after the first run).
    let mut requests = Vec::new();
    for id in CIRCUITS {
        let req = request(id, &store);
        let out = study_dir().join(format!("run-{id}"));
        if let Err(e) = run_session(&req, &out, &options, &CancelToken::new(), |_, _| {}) {
            eprintln!("campaign for corpus:{id} failed: {e}");
            return ExitCode::from(1);
        }
        requests.push(req);
    }

    // Leave-one-out transfer: each circuit predicted from the other three.
    let estimate = EstimateOptions {
        models: vec![
            ModelKind::LinearLeastSquares,
            ModelKind::Knn,
            ModelKind::RandomForest,
        ],
        grid_budget: 1,
        store: Some(store.clone()),
        force: args.force,
        ..EstimateOptions::default()
    };
    let mut reports = Vec::new();
    for (i, eval) in requests.iter().enumerate() {
        let train: Vec<RunRequest> = requests
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, r)| r.clone())
            .collect();
        match transfer_from_store(&train, eval, &estimate) {
            Ok(summary) => {
                let r = summary.report.reference.as_ref().expect("measured");
                println!(
                    "corpus:{}: predicted FFR {:.4} vs measured {:.4} ({:+.4}), \
                     MAE {:.3}, model {}{}",
                    CIRCUITS[i],
                    summary.report.predicted_ffr,
                    r.measured_ffr,
                    r.ffr_delta,
                    r.mae,
                    summary.report.best_model,
                    if summary.report_from_cache {
                        " (cached)"
                    } else {
                        ""
                    }
                );
                reports.push((CIRCUITS[i].to_string(), summary.report));
            }
            Err(e) => {
                eprintln!("transfer onto corpus:{} failed: {e}", CIRCUITS[i]);
                return ExitCode::from(1);
            }
        }
    }

    CommittedDoc::in_repo("docs/transfer-study.md", "transfer_study")
        .finish(&render_markdown(&reports), args.check)
}
