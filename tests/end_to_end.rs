//! End-to-end integration: circuit → campaign → features → models →
//! estimation flow, at small scale.

use ffr_campaign::{
    run_resumable, AdaptivePolicy, CampaignCheckpoint, CancelToken, CheckpointParams, RunnerOptions,
};
use ffr_circuits::{Mac10geConfig, MacJudge, MacTestbench, TrafficConfig};
use ffr_core::{measured_rows, ModelKind, ReferenceDataset};
use ffr_fault::{Campaign, FaultKind, FdrTable};
use ffr_features::extract_features;
use ffr_ml::metrics;
use ffr_ml::model_selection::{train_test_split, StratifiedKFold};
use ffr_netlist::FfId;
use ffr_sim::GoldenRun;

/// The small MAC's reference dataset (golden-run features and the FDRs
/// of a campaign over every flip-flop) and, given a `fraction`, the table
/// of a campaign over a random training subset of that size only. Both
/// campaigns run through the campaign runner.
fn small_mac(
    injections: usize,
    seed: u64,
    fraction: Option<f64>,
) -> (ReferenceDataset, Option<FdrTable>) {
    let (cc, tb, watch, extractor) =
        MacTestbench::setup(Mac10geConfig::small(), &TrafficConfig::small());
    let golden = GoldenRun::capture(&cc, &tb, &watch);
    let judge = MacJudge::new(extractor, &golden);
    let campaign = Campaign::with_golden(&cc, &tb, &watch, &judge, golden);
    let window = tb.injection_window();
    let measure = |ffs: Vec<usize>| {
        let params = CheckpointParams {
            fault: FaultKind::Seu,
            seed,
            window_start: window.start,
            window_end: window.end,
            policy: AdaptivePolicy::fixed(injections),
        };
        let ffs = ffs.into_iter().map(|i| i as u32);
        let mut checkpoint = CampaignCheckpoint::fresh("end-to-end".into(), params, ffs);
        let options = RunnerOptions::default();
        run_resumable(
            &campaign,
            &mut checkpoint,
            &options,
            &CancelToken::new(),
            |_, _| {},
        )
        .unwrap();
        checkpoint.to_fdr_table_for(cc.num_ffs())
    };
    let reference = ReferenceDataset {
        features: extract_features(&cc, &campaign.golden().activity),
        fdr: measure((0..cc.num_ffs()).collect()).dense_fdr(),
        injections_per_ff: injections,
    };
    let subset = fraction.map(|f| measure(train_test_split(cc.num_ffs(), f, seed).0));
    (reference, subset)
}

#[test]
fn nonlinear_models_beat_linear_on_real_fault_data() {
    // 24 injections per FF: enough resolution in the reference FDR values
    // for the model-quality gap to clear the asserted margin reliably.
    let (ds, _) = small_mac(24, 1, None);
    let scored = ffr_core::estimate(
        &ds.x(),
        ds.y(),
        &StratifiedKFold::new(5, 42).split_with_training_size(ds.y(), 0.5),
        &[ModelKind::LinearLeastSquares, ModelKind::Knn],
        1,
        &[],
        &ffr_obs::Recorder::disabled(),
    );
    let lin = scored.models[0].scores;
    let knn = scored.models[1].scores;
    assert!(
        knn.r2 > lin.r2 + 0.1,
        "paper's central claim must hold: knn {} vs linear {}",
        knn.r2,
        lin.r2
    );
    assert!(
        knn.r2 > 0.5,
        "knn should be usefully predictive: {}",
        knn.r2
    );
    assert!(knn.mae < lin.mae, "knn should also win on MAE");
}

/// The paper's flow on the small MAC, in memory: a full reference
/// campaign, then a campaign over a random `fraction` of the flip-flops
/// only, `kind` selected/fitted on those by the one estimation pipeline
/// and predicting every flip-flop. Returns the reference per-FF FDRs, the
/// partial table and the mixed measured + predicted per-FF FDRs.
fn estimate_from_fraction(
    fraction: f64,
    injections: usize,
    seed: u64,
    kind: ModelKind,
) -> (Vec<f64>, FdrTable, Vec<f64>) {
    let (reference, table) = small_mac(injections, seed, Some(fraction));
    let table = table.expect("a fraction was given");
    let rows = reference.features.to_rows();
    let (tx, ty) = measured_rows(&table, &rows);
    let estimate = ffr_core::estimate(
        &tx,
        &ty,
        &StratifiedKFold::new(5, seed).split(&ty),
        &[kind],
        1,
        &rows,
        &ffr_obs::Recorder::disabled(),
    );
    let per_ff = (0..reference.len())
        .map(|i| {
            table
                .fdr(FfId::from_index(i))
                .unwrap_or(estimate.predictions[i])
        })
        .collect();
    (reference.y().to_vec(), table, per_ff)
}

#[test]
fn estimation_flow_approximates_full_campaign() {
    // Reference: a full campaign. Estimate: inject only 40 % and predict.
    let (reference, table, per_ff) = estimate_from_fraction(0.4, 16, 2, ModelKind::Knn);

    // The mixed measured+predicted values must correlate with the full
    // campaign far better than a constant predictor (R² > 0).
    let r2 = metrics::r2(&reference, &per_ff);
    assert!(r2 > 0.5, "estimation flow r2 vs full campaign = {r2}");

    // And the flow spent well under half the injections of the full
    // campaign (the paper's cost argument) — measured off the table, not
    // nominal.
    let full_cost = reference.len() * 16;
    assert!(table.injections_spent() * 2 < full_cost + reference.len());
}

#[test]
fn predicted_circuit_fdr_close_to_measured() {
    let (reference, _, per_ff) = estimate_from_fraction(0.3, 12, 5, ModelKind::DecisionTree);
    let measured_fdr = reference.iter().sum::<f64>() / reference.len() as f64;
    let estimated_fdr = per_ff.iter().sum::<f64>() / per_ff.len() as f64;
    let err = (estimated_fdr - measured_fdr).abs();
    assert!(
        err < 0.08,
        "circuit-level FDR estimate off by {err} ({estimated_fdr} vs {measured_fdr})"
    );
}

#[test]
fn feature_matrix_aligns_with_fdr_table() {
    let (ds, _) = small_mac(8, 9, None);
    assert_eq!(ds.features.num_rows(), ds.fdr.len());
    assert_eq!(ds.features.num_cols(), 25);
    // Feature values are finite; FDR within [0,1].
    for r in 0..ds.features.num_rows() {
        for c in 0..ds.features.num_cols() {
            assert!(ds.features.get(r, c).is_finite());
        }
    }
    assert!(ds.y().iter().all(|v| (0.0..=1.0).contains(v)));
    // Row names follow netlist FF order (spot-check the first row).
    assert!(ds.features.ff_names()[0].contains("_reg"));
}
