//! SET extension — combinational-net transient campaign and the combined
//! soft-error estimate.
//!
//! Runs the resumable-engine SET campaign over the MAC's combinational
//! nets (cached in the artifact store), the ML-assisted SEU estimation
//! pipeline, and folds both into a circuit-level functional failure rate via
//! [`SoftErrorEstimate`] — the cross-layer picture the follow-up work
//! needs on top of the paper's SEU-only evaluation.
//!
//! Run: `cargo run --release -p ffr-bench --bin set_derating`
//! (`FFR_SCALE=quick` for a smoke run).

use ffr_bench::{golden_run, load_or_run_set_table, mac_setup, run_mac_campaign, Scale};
use ffr_core::{measured_rows, ModelKind, RawEventRates, SoftErrorEstimate};
use ffr_fault::FaultKind;
use ffr_ml::model_selection::{train_test_split, StratifiedKFold};
use ffr_netlist::FfId;

fn main() {
    let scale = Scale::from_env();
    let setup = mac_setup(scale);

    // SET side: per-net logical de-rating from the unified engine.
    let set_table = load_or_run_set_table(scale);
    let set_population = setup.cc.comb_output_nets().len();
    println!("=== SET logical de-rating ===");
    println!(
        "nets covered: {} of {} combinational   injections/net: {}",
        set_table.num_nets(),
        set_population,
        set_table.injections_per_net()
    );
    println!(
        "circuit-level SET de-rating: {:.4}",
        set_table.circuit_derating()
    );
    let masked = set_table.covered().filter(|r| r.derating() == 0.0).count();
    println!("fully masked nets: {masked}/{}", set_table.num_nets());
    println!("\nde-rating histogram (10 bins):");
    print!("{}", set_table.histogram(10));

    // SEU side: inject a training fraction, predict the rest.
    let golden = golden_run(&setup);
    let features = ffr_features::extract_features(&setup.cc, &golden.activity);
    let num_ffs = setup.cc.num_ffs();
    let (subset, _) = train_test_split(num_ffs, 0.3, 2019);
    let subset = subset.into_iter().map(|i| i as u32).collect();
    let table = run_mac_campaign(&setup, golden, FaultKind::Seu, subset).to_fdr_table_for(num_ffs);
    let rows = features.to_rows();
    let (tx, ty) = measured_rows(&table, &rows);
    let estimate = ffr_core::estimate(
        &tx,
        &ty,
        &StratifiedKFold::new(5, 2019).split(&ty),
        &[ModelKind::Knn],
        1,
        &rows,
        &ffr_obs::Recorder::disabled(),
    );
    let estimation: Vec<f64> = (0..num_ffs)
        .map(|i| {
            table
                .fdr(FfId::from_index(i))
                .unwrap_or(estimate.predictions[i])
        })
        .collect();
    println!("\n=== SEU estimation pipeline (30% trained, k-NN) ===");
    println!(
        "circuit-level FDR: {:.4}",
        estimation.iter().sum::<f64>() / num_ffs as f64
    );

    // Combined: generic per-site raw rates (unit: arbitrary, e.g. FIT).
    // Quick scale subsamples the SET nets, so extrapolate the covered
    // mean to the full combinational-net population — otherwise the SET
    // contribution would be undercounted by the sampling factor.
    let rates = RawEventRates {
        seu_per_ff: 1.0,
        set_per_net: 0.1,
    };
    let combined =
        SoftErrorEstimate::from_estimation_sampled(&estimation, &set_table, &rates, set_population);
    println!("\n=== Combined soft-error estimate (λ_SEU=1, λ_SET=0.1 per site) ===");
    println!("SEU contribution: {:.2}", combined.seu_failure_rate);
    println!("SET contribution: {:.2}", combined.set_failure_rate);
    println!(
        "total FFR: {:.2}   (SET share: {:.1}%)",
        combined.total(),
        100.0 * combined.set_share()
    );
}
