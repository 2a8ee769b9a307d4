//! The paper's §IV-A campaign on the 10GE-MAC-like design, run through
//! the resumable campaign runner of `ffr-campaign`: adaptive Wilson-CI
//! early stopping, a checkpoint saved at the interruption, and
//! bit-identical resume after an (simulated) interruption.
//!
//! Run: `cargo run --release --example mac_fault_campaign`

use ffr_campaign::{
    run_resumable, AdaptivePolicy, CampaignCheckpoint, CancelToken, CheckpointParams, RunOutcome,
    RunnerOptions,
};
use ffr_circuits::{Mac10geConfig, MacJudge, MacTestbench, TrafficConfig};
use ffr_fault::{Campaign, FailureClass, FaultKind};
use ffr_sim::GoldenRun;

fn main() {
    let (cc, tb, watch, extractor) =
        MacTestbench::setup(Mac10geConfig::small(), &TrafficConfig::small());
    println!(
        "MAC: {} flip-flops; testbench sends {} packets",
        cc.num_ffs(),
        tb.sent_packets().len()
    );

    let golden = GoldenRun::capture(&cc, &tb, &watch);
    let judge = MacJudge::new(extractor, &golden);
    println!(
        "golden run receives {} packets intact",
        judge.golden_packets().len()
    );
    let campaign = Campaign::with_golden(&cc, &tb, &watch, &judge, golden);

    // Adaptive policy: 40–120 injections per flip-flop, retiring each one
    // as soon as its 95 % Wilson interval half-width reaches 0.08.
    let window = tb.injection_window();
    let mut checkpoint = CampaignCheckpoint::fresh(
        "example".into(),
        CheckpointParams {
            fault: FaultKind::Seu,
            seed: 7,
            window_start: window.start,
            window_end: window.end,
            policy: AdaptivePolicy::adaptive(40, 120, 0.08),
        },
        0..cc.num_ffs() as u32,
    );
    let checkpoint_path = std::env::temp_dir().join("mac_fault_campaign.checkpoint.json");

    // First leg: stop (resumably) after half the flip-flops, as if the
    // process had been killed mid-campaign.
    let outcome = run_resumable(
        &campaign,
        &mut checkpoint,
        &RunnerOptions {
            stop_after_points: Some(cc.num_ffs() / 2),
            ..RunnerOptions::default()
        },
        &CancelToken::new(),
        |_, _| {},
    )
    .expect("in-memory run");
    assert_eq!(outcome, RunOutcome::Cancelled);
    checkpoint
        .save(&checkpoint_path)
        .expect("checkpoint directory is writable");
    println!(
        "\ninterrupted after {}/{} flip-flops ({} injections so far) — resuming from {}",
        checkpoint.completed_points(),
        checkpoint.num_points,
        checkpoint.total_injections(),
        checkpoint_path.display()
    );

    // Second leg: reload the checkpoint from disk (as `ffr resume` would)
    // and drive the campaign to completion.
    let mut checkpoint =
        CampaignCheckpoint::load(&checkpoint_path).expect("checkpoint written by first leg");
    let outcome = run_resumable(
        &campaign,
        &mut checkpoint,
        &RunnerOptions::default(),
        &CancelToken::new(),
        |done, total| {
            if done % 50 == 0 || done == total {
                eprintln!("  {done}/{total} flip-flops retired");
            }
        },
    )
    .expect("in-memory run");
    assert_eq!(outcome, RunOutcome::Complete);
    let table = checkpoint.to_fdr_table_for(cc.num_ffs());
    println!(
        "campaign complete: {} injections (fixed-120 budget would have been {})",
        checkpoint.total_injections(),
        cc.num_ffs() * 120
    );

    // Rank flip-flops by FDR.
    let mut ranked: Vec<(usize, f64)> = (0..cc.num_ffs())
        .map(|i| {
            (
                i,
                table
                    .fdr(ffr_netlist::FfId::from_index(i))
                    .expect("full campaign"),
            )
        })
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));

    println!("\nmost vulnerable flip-flops:");
    for &(i, fdr) in ranked.iter().take(10) {
        let ff = ffr_netlist::FfId::from_index(i);
        println!("  {:<26} FDR = {:.3}", cc.netlist().ff_name(ff), fdr);
    }
    println!("\nleast vulnerable flip-flops:");
    for &(i, fdr) in ranked.iter().rev().take(5) {
        let ff = ffr_netlist::FfId::from_index(i);
        println!("  {:<26} FDR = {:.3}", cc.netlist().ff_name(ff), fdr);
    }

    println!("\nfailure-class totals over the campaign:");
    for (class, count) in table.class_totals() {
        if class != FailureClass::Benign {
            println!("  {class:<20} {count}");
        }
    }
    println!("\ncircuit FDR = {:.4}", table.circuit_fdr());
    println!("\nFDR histogram:");
    print!("{}", table.histogram(10));

    let _ = std::fs::remove_file(&checkpoint_path);
}
