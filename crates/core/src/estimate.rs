//! The estimation pipeline of Fig. 1: select a model on the measured
//! flip-flops, fit the winner, predict the rest.
//!
//! [`estimate()`] is the only select → fit → predict path of the workspace.
//! Its callers (`ffr estimate`, `ffr transfer`, in-memory users) differ in
//! where the rows come from and which fold protocol they supply — the
//! fold list *is* the protocol — not in what happens to them; see
//! `docs/ARCHITECTURE.md` § Estimation pipeline for the caller table.

use crate::models::{ModelCandidate, ModelKind};
use ffr_fault::FdrTable;
use ffr_ml::model_selection::grid_search;
use ffr_ml::RegressionScores;

/// Cross-validation outcome of one model kind's small grid.
#[derive(Debug, Clone)]
pub struct ModelCv {
    /// The best candidate of the kind's grid (highest mean test R²,
    /// first-listed wins ties).
    pub best: ModelCandidate,
    /// Mean test-fold scores of that candidate (the paper's Table I
    /// metric bundle).
    pub scores: RegressionScores,
}

/// Result of one [`estimate()`] call.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// Per-kind CV results, in the order the kinds were given.
    pub models: Vec<ModelCv>,
    /// The overall winner: highest CV R², first-listed kind wins ties.
    pub winner: ModelCandidate,
    /// The winner's predictions, one per target row, clamped to `[0, 1]`.
    pub predictions: Vec<f64>,
}

/// Select a model by cross-validation over `folds`, fit the winner on all
/// of `(x, y)` and predict `targets`.
///
/// Every kind in `kinds` gets a [`ModelKind::small_grid`] of at most
/// `grid_budget` candidates (1 = the tuned default only), searched by
/// [`grid_search`] over the caller's `folds` — stratified folds for
/// within-circuit estimation, leave-one-group-out folds for cross-circuit
/// transfer; the pipeline itself is protocol-agnostic. Each search is an
/// `estimate.fit` span (field `model`) on `recorder`. All models
/// construct with fixed seeds, so the result is a pure function of the
/// arguments.
///
/// # Panics
///
/// Panics if `kinds` is empty, `grid_budget` is zero, or the training
/// rows are empty/ragged/non-finite.
pub fn estimate(
    x: &[Vec<f64>],
    y: &[f64],
    folds: &[(Vec<usize>, Vec<usize>)],
    kinds: &[ModelKind],
    grid_budget: usize,
    targets: &[Vec<f64>],
    recorder: &ffr_obs::Recorder,
) -> Estimate {
    let mut models: Vec<ModelCv> = Vec::with_capacity(kinds.len());
    let mut winner: Option<usize> = None;
    for &kind in kinds {
        let grid = kind.small_grid(grid_budget);
        let mut fit_span = recorder.span("estimate.fit");
        fit_span.field("model", kind.cli_name());
        let search = grid_search(&grid, |c| c.build(), x, y, folds);
        drop(fit_span);
        if winner.is_none_or(|w| search.best_scores.r2 > models[w].scores.r2) {
            winner = Some(models.len());
        }
        models.push(ModelCv {
            best: search.best_params,
            scores: search.best_scores,
        });
    }
    let winner = models[winner.expect("at least one model kind")]
        .best
        .clone();
    let predictions = fit_predict(&winner, x, y, targets);
    Estimate {
        models,
        winner,
        predictions,
    }
}

/// Fit a fresh instance of `candidate` on `(x, y)` and predict `targets`,
/// clamped to the valid FDR range `[0, 1]`.
pub fn fit_predict(
    candidate: &ModelCandidate,
    x: &[Vec<f64>],
    y: &[f64],
    targets: &[Vec<f64>],
) -> Vec<f64> {
    let predictions = ffr_ml::fit_predict(candidate.build(), x, y, targets);
    predictions.into_iter().map(|p| p.clamp(0.0, 1.0)).collect()
}

/// The training set a (possibly partial) FDR table defines over a
/// circuit's feature rows: one `(row, measured FDR)` pair per covered
/// flip-flop, in `FfId` order.
///
/// # Panics
///
/// Panics if `rows` and the table disagree on the number of flip-flops.
pub fn measured_rows(table: &FdrTable, rows: &[Vec<f64>]) -> (Vec<Vec<f64>>, Vec<f64>) {
    assert_eq!(
        rows.len(),
        table.num_ffs(),
        "feature rows and FDR table cover different circuits"
    );
    table
        .covered()
        .map(|r| (rows[r.ff().index()].clone(), r.fdr()))
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffr_ml::model_selection::{GroupKFold, StratifiedKFold};
    use ffr_obs::Recorder;

    /// 48 rows in three "circuits" of 16; a smooth target in `[0, 1]`.
    fn dataset() -> (Vec<Vec<f64>>, Vec<f64>, Vec<usize>) {
        let x: Vec<Vec<f64>> = (0..48)
            .map(|i| vec![(i % 8) as f64, (i % 3) as f64, (i / 16) as f64])
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| (r[0] * 0.1 + r[1] * 0.05).min(1.0))
            .collect();
        let groups = (0..48).map(|i| i / 16).collect();
        (x, y, groups)
    }

    fn run(
        folds: &[(Vec<usize>, Vec<usize>)],
        kinds: &[ModelKind],
        grid_budget: usize,
    ) -> Estimate {
        let (x, y, _) = dataset();
        let targets = vec![
            vec![1.0, 2.0, 0.0],
            vec![7.0, 0.0, 2.0],
            vec![3.0, 1.0, 1.0],
        ];
        estimate(
            &x,
            &y,
            folds,
            kinds,
            grid_budget,
            &targets,
            &Recorder::disabled(),
        )
    }

    fn assert_same(a: &Estimate, b: &Estimate) {
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(a.winner.kind(), b.winner.kind());
        assert_eq!(a.winner.label(), b.winner.label());
        for (ma, mb) in a.models.iter().zip(&b.models) {
            assert_eq!(ma.best.label(), mb.best.label());
            assert_eq!(ma.scores, mb.scores);
        }
    }

    #[test]
    fn fold_protocol_is_the_callers_and_results_are_deterministic() {
        let (_, y, groups) = dataset();
        let kinds = [
            ModelKind::LinearLeastSquares,
            ModelKind::Knn,
            ModelKind::RandomForest,
        ];
        // `ffr estimate`'s protocol and `ffr transfer`'s, through the same
        // function: the fold list is the only difference.
        for folds in [
            StratifiedKFold::new(4, 7).split(&y),
            GroupKFold::leave_one_out(&groups),
        ] {
            let a = run(&folds, &kinds, 2);
            assert_eq!(a.models.len(), kinds.len());
            for (m, kind) in a.models.iter().zip(kinds) {
                assert_eq!(m.best.kind(), kind, "per-kind results keep the given order");
            }
            assert!(a.models.iter().any(|m| m.best.kind() == a.winner.kind()));
            assert_eq!(a.predictions.len(), 3, "one prediction per target row");
            assert_same(&a, &run(&folds, &kinds, 2));
        }
    }

    #[test]
    fn predictions_are_clamped_to_the_fdr_range() {
        // y = x on [0, 1]; a linear model extrapolates to ±5 off-range.
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0]).collect();
        let folds = StratifiedKFold::new(4, 1).split(&y);
        let targets = vec![vec![5.0], vec![-5.0], vec![0.5]];
        let e = estimate(
            &x,
            &y,
            &folds,
            &[ModelKind::LinearLeastSquares],
            1,
            &targets,
            &Recorder::disabled(),
        );
        assert_eq!(e.predictions.len(), targets.len());
        assert_eq!(e.predictions[0], 1.0);
        assert_eq!(e.predictions[1], 0.0);
        assert!((e.predictions[2] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn r2_tie_keeps_the_first_listed_kind() {
        // A constant target: tree and forest both predict it exactly, so
        // their CV scores are identical and only the listing order decides.
        let x: Vec<Vec<f64>> = (0..24).map(|i| vec![(i % 6) as f64]).collect();
        let y = vec![0.5; 24];
        let folds = StratifiedKFold::new(3, 0).split(&y);
        for kinds in [
            [ModelKind::DecisionTree, ModelKind::RandomForest],
            [ModelKind::RandomForest, ModelKind::DecisionTree],
        ] {
            let e = estimate(&x, &y, &folds, &kinds, 2, &x, &Recorder::disabled());
            assert_eq!(e.models[0].scores.r2, e.models[1].scores.r2, "a real tie");
            assert_eq!(e.winner.kind(), kinds[0]);
            // The same rule inside one kind's grid: the tuned default is
            // listed first and wins the tie against the second candidate.
            assert_eq!(e.winner.label(), "tuned-default");
        }
    }

    #[test]
    fn grid_budget_one_evaluates_exactly_the_tuned_default() {
        let (x, y, _) = dataset();
        // Plain stratified folds and the paper's training-size protocol
        // (what `paper_tables` scores Tables I–II with).
        let splitter = StratifiedKFold::new(4, 7);
        for folds in [
            splitter.split(&y),
            splitter.split_with_training_size(&y, 0.5),
        ] {
            for kind in ModelKind::PAPER
                .into_iter()
                .chain([ModelKind::GradientBoosting])
            {
                let e = run(&folds, &[kind], 1);
                assert_eq!(e.models.len(), 1);
                assert_eq!(e.winner.label(), "tuned-default");
                let expected =
                    ffr_ml::model_selection::cross_validate(|| kind.build(), &x, &y, &folds);
                assert_eq!(e.models[0].scores, expected.mean_test());
            }
        }
    }

    #[test]
    fn measured_rows_train_on_covered_ffs_only_and_every_ff_gets_a_value() {
        use ffr_circuits::{Mac10geConfig, MacJudge, MacTestbench, TrafficConfig};
        use ffr_fault::{Campaign, CampaignConfig, FdrTable, FfCampaignResult, InjectionPoint};
        use ffr_netlist::FfId;
        use ffr_sim::GoldenRun;
        let (cc, tb, watch, extractor) =
            MacTestbench::setup(Mac10geConfig::small(), &TrafficConfig::small());
        let golden = GoldenRun::capture(&cc, &tb, &watch);
        let judge = MacJudge::new(extractor, &golden);
        let rows = ffr_features::extract_features(&cc, &golden.activity).to_rows();
        // Measure a third of the flip-flops with a real (tiny) campaign.
        let campaign = Campaign::with_golden(&cc, &tb, &watch, &judge, golden);
        let subset: Vec<FfId> = (0..cc.num_ffs())
            .filter(|i| i % 3 == 0)
            .map(FfId::from_index)
            .collect();
        let config = CampaignConfig::new(tb.injection_window())
            .with_injections(4)
            .with_seed(11);
        let table = FdrTable::from_results(
            cc.num_ffs(),
            subset
                .iter()
                .map(|&ff| {
                    FfCampaignResult::new(ff, campaign.run_point(InjectionPoint::Seu(ff), &config))
                })
                .collect(),
            4,
        );

        let (tx, ty) = measured_rows(&table, &rows);
        assert_eq!(tx.len(), subset.len());
        for ((row, &fdr), ff) in tx.iter().zip(&ty).zip(&subset) {
            assert_eq!(row, &rows[ff.index()]);
            assert_eq!(Some(fdr), table.fdr(*ff));
        }

        let folds = StratifiedKFold::new(3, 11).split(&ty);
        let run = || {
            let recorder = Recorder::disabled();
            estimate(&tx, &ty, &folds, &[ModelKind::Knn], 1, &rows, &recorder)
        };
        let e = run();
        assert_eq!(e.predictions.len(), cc.num_ffs(), "every FF gets a value");
        assert!(e.predictions.iter().all(|v| (0.0..=1.0).contains(v)));
        // No simulation happens: reruns off the same table are identical.
        assert_same(&e, &run());
    }
}
