//! The fixed-170 vs Wilson-CI accuracy-vs-cost sweep.
//!
//! Runs the policy × budget grid of [`ffr_bench::policy_study`] on
//! `mac-small` (and, at paper scale, on the paper-scale MAC), emits the
//! versioned `policy-study.json` store artifact plus a plain copy under
//! `target/policy-study/`, and regenerates `docs/policy-study.md` from
//! the `mac-small` study — the README's headline accuracy-vs-cost table.
//!
//! The `mac-small` sweep is scale-independent and fully deterministic
//! (fixed seeds, store-cached campaigns), so the committed markdown can
//! be re-rendered and compared by CI:
//!
//! ```text
//! cargo run --release -p ffr-bench --bin policy_study            # regenerate
//! cargo run --release -p ffr-bench --bin policy_study -- --check # CI drift gate
//! cargo run --release -p ffr-bench --bin policy_study -- --force # recompute
//! FFR_SCALE=paper cargo run --release -p ffr-bench --bin policy_study
//! ```
//!
//! At paper scale the additional `mac` study prints to stdout and lands
//! in the artifact store only — `docs/policy-study.md` always holds the
//! CI-reproducible `mac-small` table.

use ffr_bench::drift::{CommittedDoc, DocArgs};
use ffr_bench::policy_study::{render_markdown, run_study, PolicyStudy, StudyConfig};
use ffr_bench::Scale;
use std::path::PathBuf;
use std::process::ExitCode;

/// Where the plain-JSON copy of the studies goes.
fn json_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/policy-study/policy-study.json")
}

/// Console summary of a study: each full-budget policy's cost and
/// accuracy against the reference, then the budgeted ML-flow cells.
fn print_summary(study: &PolicyStudy) {
    println!(
        "=== {} ({} FFs, reference {} @ {} injections, FFR {:.4}) ===",
        study.circuit,
        study.total_ffs,
        study.reference_policy,
        study.reference_injections,
        study.reference_ffr
    );
    let full_budget: Vec<_> = study.rows.iter().filter(|r| r.budget >= 1.0).collect();
    let width = full_budget
        .iter()
        .map(|r| r.policy.len())
        .fold(6, usize::max);
    println!(
        "{:<width$} {:>12} {:>10} {:>10}",
        "policy", "injections", "saved", "|dFFR|"
    );
    for row in full_budget {
        println!(
            "{:<width$} {:>12} {:>9.1}% {:>10.4}",
            row.policy,
            row.injections,
            row.saved_vs_reference * 100.0,
            row.ffr_delta.abs()
        );
    }
    for row in study.rows.iter().filter(|r| r.budget < 1.0) {
        if let Some(est) = &row.estimate {
            println!(
                "  {} @ {:.0} % budget → {} injections, ML flow ({}) FFR {:.4} ({:+.4})",
                row.policy,
                row.budget * 100.0,
                row.injections,
                est.best_model,
                est.circuit_ffr,
                est.ffr_delta
            );
        }
    }
    if let Some(headline) = study.headline(ffr_bench::policy_study::HEADLINE_FFR_TOLERANCE) {
        println!(
            "headline: {} saves {:.1} % of injections at |dFFR| {:.4}",
            headline.policy,
            headline.saved_vs_reference * 100.0,
            headline.ffr_delta.abs()
        );
    }
    println!();
}

fn main() -> ExitCode {
    let args = match DocArgs::from_env() {
        Ok(args) => args,
        Err(code) => return ExitCode::from(code),
    };
    let docs = CommittedDoc::in_repo("docs/policy-study.md", "policy_study");

    // The mac-small study drives the docs and is scale-independent.
    let mut config = StudyConfig::new("mac-small");
    config.force = args.force;
    let small = match run_study(&config) {
        Ok(study) => study,
        Err(e) => {
            eprintln!("policy study failed: {e}");
            return ExitCode::from(1);
        }
    };
    print_summary(&small);
    let rendered = render_markdown(&small);

    if args.check {
        return docs.finish(&rendered, true);
    }

    let mut studies = vec![small];
    if Scale::from_env() == Scale::Paper {
        // The paper-scale MAC sweep: store artifact + stdout only.
        let mut config = StudyConfig::new("mac");
        config.force = args.force;
        match run_study(&config) {
            Ok(study) => {
                print_summary(&study);
                studies.push(study);
            }
            Err(e) => {
                eprintln!("paper-scale policy study failed: {e}");
                return ExitCode::from(1);
            }
        }
    }

    let json = json_path();
    if let Some(parent) = json.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let doc = serde_json::to_string_pretty(&studies).expect("studies serialize");
    if let Err(e) = std::fs::write(&json, &doc) {
        eprintln!("failed to write {}: {e}", json.display());
        return ExitCode::from(1);
    }
    println!("policy-study.json written to {}", json.display());
    docs.finish(&rendered, false)
}
